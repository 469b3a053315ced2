import math
import tracemalloc

import numpy as np
import pytest

from sgszego import decimation as dec
from sgszego import laplacian as lap
from sgszego import szego as sz
from sgszego import topology as top
from sgszego.functions import HarmonicFunction

from subspaces import (cached_dense_spectrum, dirichlet_laplacian, extend_values, extension_maps,
                       matrix_walk_resistance, reference_laplacian)


def test_level_one_matrix():
    assert dirichlet_laplacian(1).shape == (3, 3)
    evals, evecs = cached_dense_spectrum(1)
    assert evals == pytest.approx([2.0, 5.0, 5.0], abs=1e-12)
    # orthonormal eigenvectors
    assert evecs.T @ evecs == pytest.approx(np.eye(3), abs=1e-12)


def test_level_two_spectrum():
    # analytic multiset from one decimation step applied to {2, 5, 5},
    # plus the eigenvalues born at level 2
    L = dirichlet_laplacian(2)
    assert L.shape == (12, 12)
    assert np.trace(L) == pytest.approx(48.0)
    evals, _ = cached_dense_spectrum(2)
    s17, s5 = math.sqrt(17), math.sqrt(5)
    expected = sorted(
        [(5 - s17) / 2, (5 + s17) / 2]
        + [(5 - s5) / 2] * 2
        + [(5 + s5) / 2] * 2
        + [5.0] * 3
        + [6.0] * 3
    )
    assert evals == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("m", range(1, 6))
def test_vectorized_matrix_matches_edge_loop(m):
    interior = top.level_topology(m).interior_indices
    ref = reference_laplacian(m)[interior][:, interior]
    assert dirichlet_laplacian(m).tobytes() == ref.tobytes()


@pytest.mark.parametrize("m", range(1, 7))
def test_apply_neg_laplacian_matches_reference(m):
    # random columns with nonzero boundary values, which enter the rows of
    # the boundary's neighbours
    topo = top.level_topology(m)
    values = np.random.default_rng(m).normal(size=(topo.n_vertices, 3))
    assert np.all(values[topo.boundary_mask] != 0.0)
    expected = (reference_laplacian(m) @ values)[topo.interior_indices]
    assert np.max(np.abs(lap.apply_neg_laplacian(m, values) - expected)) <= 1e-13


@pytest.mark.parametrize("m", range(1, 6))
def test_trace_identity(m):
    evals, _ = cached_dense_spectrum(m)
    n = (3 ** (m + 1) - 3) // 2
    assert len(evals) == n
    assert abs(evals.sum() - 4.0 * n) / (4.0 * n) < 1e-12


def test_constant_vector_interior_rows():
    # every interior vertex has four neighbours, boundary ones included
    out = lap.apply_neg_laplacian(3, np.ones(top.vertex_count(3)))
    assert out.shape == (top.interior_count(3),)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("m", range(2, 5))
def test_dense_eigenpair_residuals(m):
    topo = top.level_topology(m)
    evals, evecs = cached_dense_spectrum(m)
    for k in range(len(evals)):
        full = np.zeros(topo.n_vertices)
        full[topo.interior_indices] = evecs[:, k]
        assert lap.eigen_residual(m, full, evals[k]) < 1e-9


def _minus_six_family(count):
    """g_1 = -6 and g_(d+1) = g_d (5 - g_d), clamped at -GAMMA_CLAMP: the
    gammas of the 6-series remainder's extension (`schur.remainder_table`)."""
    gammas = [-6.0]
    while len(gammas) < count:
        gammas.append(max(gammas[-1] * (5.0 - gammas[-1]), -dec.GAMMA_CLAMP))
    return gammas


@pytest.mark.parametrize("G", [1, 3, 8])
@pytest.mark.parametrize("k", range(2, 7))
def test_stacked_extension_is_the_scalar_extension_per_slice(k, G):
    # one gamma per word of a corner table gives, bit for bit, the scalar
    # call on that word's slice; the gammas cover both branches of the
    # decimation map
    rng = np.random.default_rng(100 * k + G)
    table = rng.normal(size=(G, 3 ** (k - 1), 3))
    gammas = rng.uniform(0.0, 6.2, size=G)
    stacked = lap.child_corners(table, lap.midpoints(table, gammas))
    assert np.array_equal(stacked, np.stack(
        [lap.child_corners(table[g], lap.midpoints(table[g], gammas[g])) for g in range(G)]))


@pytest.mark.parametrize("G", [1, 3, 8])
@pytest.mark.parametrize("k", range(2, 8))
def test_extend_values_is_the_expression_bit_for_bit(k, G):
    # the midpoints that extend a corner table of level k - 1 are the one
    # expression ((4 - g)(u_p + u_q) + 2 u_r) / ((2 - g)(5 - g)), bit for
    # bit, at gammas of both branches of the decimation map, the harmonic 0,
    # the birth 6 and the -6, -66, ... family up to its clamp, each scalar,
    # and one per word
    rng = np.random.default_rng(10 * k + G)
    table = rng.normal(size=(G, 3 ** (k - 1), 3))
    family = _minus_six_family(8)
    scalars = [0.0, 6.0] + list(rng.uniform(0.0, 6.2, size=3)) + family
    for gamma in scalars + [rng.uniform(0.0, 6.2, size=G), np.roll(family, k)[:G]]:
        g = np.reshape(gamma, np.shape(gamma) + (1,))  # one per row of each corner column
        expected = np.stack([((4.0 - g) * (table[..., p] + table[..., q]) + 2.0 * table[..., r])
                             / ((2.0 - g) * (5.0 - g))
                             for r, (p, q) in enumerate(((1, 2), (0, 2), (0, 1)))], axis=-1)
        assert np.array_equal(lap.midpoints(table, gamma), expected)


@pytest.mark.parametrize("gammas", ["scalar", "per word", "zero", "six", "minus six",
                                    "minus six per word"])
@pytest.mark.parametrize("G", [1, 3, 8])
def test_corner_table_extension_is_the_vertex_extension_bit_for_bit(G, gammas):
    # a function on V_0 as its corner table, (words, cells, 3), extended
    # level by level by `midpoints` and `child_corners`, holds at every
    # level the vertex-order extension's values at every cell's corners, and
    # one gather at each vertex's canonical (cell, corner) name reads that
    # extension off, bit for bit: with one scalar gamma per level of both
    # branches of the decimation map, with one gamma per word, at the birth
    # gamma 6, along the -6, -66, ... family up to its clamp at -1e100, and
    # at gamma = 0 on a table with no words axis, as a harmonic function's
    rng = np.random.default_rng(G)
    values = rng.normal(size=3) if gammas == "zero" else rng.normal(size=(3, G))
    table = values.T[..., None, :]
    family = _minus_six_family(8)
    assert family[-1] == -dec.GAMMA_CLAMP
    for k in range(1, 9):
        gamma = {"scalar": rng.uniform(0.0, 6.2), "per word": rng.uniform(0.0, 6.2, size=G),
                 "zero": 0.0, "six": 6.0, "minus six": family[k - 1],
                 "minus six per word": np.roll(family, k)[:G]}[gammas]
        table = lap.child_corners(table, lap.midpoints(table, gamma))
        values = extend_values(values, k, gamma)
        topo = top.level_topology(k)
        assert table.shape == values.T.shape[:-1] + (3**k, 3)
        assert np.array_equal(table, values.T[..., topo.cell_vertices])
        assert np.array_equal(lap.vertex_values(table, topo), values.T)


def test_midpoints_at_zero_are_the_harmonic_rule():
    # ((a + b) 4 + 2 c) / 10 rounds as ((a + b) 2 + c) / 5, since scaling by
    # 2 is exact; and `child_corners` keeps an integer table integer
    corners = np.random.default_rng(5).normal(size=(4, 50, 3))
    expected = corners[..., [1, 0, 0]] + corners[..., [2, 2, 1]]
    expected *= 2.0
    expected += corners
    expected /= 5.0
    assert np.array_equal(lap.midpoints(corners, 0.0), expected)
    assert np.array_equal(lap.midpoints(corners, np.zeros(4)), expected)
    rows = lap.child_corners(np.full((1, 3), 3), np.array([[2, 1, 0]]))
    assert rows.dtype.kind == "i" and rows.tolist() == [[3, 0, 1], [0, 3, 2], [1, 2, 3]]


def _dense_resistance(m):
    """Reference: the resistance matrix from the pseudo-inverse of the
    Laplacian with edge conductance (5/3)^m, filled edge by edge."""
    adjacency = (reference_laplacian(m) == -1.0).astype(float)
    L = (5.0 / 3.0) ** m * (np.diag(adjacency.sum(axis=1)) - adjacency)
    p = np.linalg.pinv(L, hermitian=True)
    d = np.diag(p)
    return d[:, None] + d[None, :] - 2.0 * p


def _green_matrix(m):
    """Reference: the Green's matrix on V_m of the Laplacian with edge
    conductance (5/3)^m, grounded at q_1 (its row and column are zero).

    G_0 = [[2, 1], [1, 2]] / 3 on (q_2, q_3).  Level k orders V_k as V_{k-1}
    and the new vertices N; with H_k harmonic extension and D_k the
    block-diagonal (5/3)^k (5I - J) coupling of each cell's midpoints,
    G_k = H_k G_{k-1} H_k^T + D_k^{-1} on N, because the Schur complement of
    D_k is the level-(k-1) Laplacian: the renormalization 3/5 of the gasket.
    """
    green = np.zeros((3, 3))
    green[1:, 1:] = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    for k in range(1, m + 1):
        half = np.ascontiguousarray(extend_values(green, k, 0.0).T)
        green = extend_values(half, k, 0.0)
        mid = extension_maps(k)[2]
        green[mid[:, :, None], mid[:, None, :]] += (3.0 / 5.0) ** k * (np.eye(3) + 0.5) / 5.0
    return green


def _resistance_matrix(green):
    """R(x, y) = G_xx + G_yy - 2 G_xy for any grounded Green's matrix G."""
    d = np.diag(green)
    return d[:, None] + d[None, :] - 2.0 * green


def _holder_seminorm(values, R, alpha):
    """Empirical Holder seminorm max |f(x)-f(y)| / R(x,y)^alpha over all
    sampled vertex pairs of the resistance matrix R."""
    if alpha <= 0:
        raise ValueError("exponent must be positive")
    values = np.asarray(values, dtype=float)
    diff = np.abs(values[:, None] - values[None, :])
    mask = ~np.eye(len(values), dtype=bool)
    return float(np.max(diff[mask] / R[mask] ** alpha))


def _pair_matrix(rc):
    """All-pairs resistance from the pair queries of one computer."""
    idx = np.arange(top.level_topology(rc.level).n_vertices)
    return rc.resistance(idx[:, None], idx[None, :])


@pytest.mark.parametrize("m", range(0, 6))
def test_resistance_matches_dense_pinv(m):
    R = _pair_matrix(lap.ResistanceComputer(m))
    assert np.max(np.abs(R - _dense_resistance(m))) < 1e-12


@pytest.mark.parametrize("m", range(0, 7))
def test_pair_resistance_matches_green_matrix(m):
    R = _resistance_matrix(_green_matrix(m))
    rc = lap.ResistanceComputer(m)
    idx = np.arange(len(R))
    for lo in range(0, len(R), 128):  # row blocks keep the pair arrays small
        rows = idx[lo:lo + 128]
        assert np.max(np.abs(rc.resistance(rows[:, None], idx[None, :]) - R[rows])) < 1e-13


def test_resistance_level_seven_without_dense_solve():
    rc = lap.ResistanceComputer(7)
    topo = top.level_topology(rc.level)
    b = np.nonzero(topo.boundary_mask)[0]
    for x in range(3):
        for y in range(x + 1, 3):
            assert abs(rc.resistance(b[x], b[y]) - 2.0 / 3.0) < 1e-15
    x, y = np.random.default_rng(5).integers(topo.n_vertices, size=(2, 20000))
    assert np.max(np.abs(rc.resistance(x, y) - rc.resistance(y, x))) < 1e-14
    idx = np.arange(topo.n_vertices)
    assert np.all(rc.resistance(idx, idx) == 0.0)


@pytest.mark.parametrize("m", range(0, 6))
def test_walk_matches_matrix_walk_on_all_pairs(m):
    # the per-coordinate walk against the matrix form it replaced: the
    # energies are summed in another order, so they agree to rounding
    idx = np.arange(top.level_topology(m).n_vertices)
    x, y = (a.ravel() for a in np.meshgrid(idx, idx))
    assert np.max(np.abs(lap.ResistanceComputer(m).resistance(x, y)
                         - matrix_walk_resistance(m, x, y))) < 1e-15


@pytest.mark.parametrize("m", [7, 10])
def test_walk_matches_matrix_walk_on_random_pairs(m):
    x, y = np.random.default_rng(m).integers(top.level_topology(m).n_vertices, size=(2, 20000))
    assert np.max(np.abs(lap.ResistanceComputer(m).resistance(x, y)
                         - matrix_walk_resistance(m, x, y))) < 1e-15


def test_walk_boundary_pairs_bit_identical_to_matrix_walk():
    # the boundary pairs are what resistance.csv records
    for m in range(13):
        b = np.nonzero(top.level_topology(m).boundary_mask)[0]
        x, y = b[[0, 0, 1]], b[[1, 2, 2]]
        assert np.array_equal(lap.ResistanceComputer(m).resistance(x, y),
                              matrix_walk_resistance(m, x, y))


def _query_peak(rc, pairs):
    """Traced peak bytes of one resistance call on `pairs` random pairs."""
    x, y = np.random.default_rng(3).integers(top.level_topology(rc.level).n_vertices,
                                             size=(2, pairs))
    tracemalloc.start()
    try:
        rc.resistance(x, y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_queries_memory():
    # a query holds O(m) numbers per pair; the n x n matrix at level 10
    # would be 63 GB
    assert _query_peak(lap.ResistanceComputer(10), 3003) < 5e6
    # pairs are answered a chunk at a time: beyond the 8-byte result per pair,
    # ten chunks and a partial one hold no more than one chunk does
    rc = lap.ResistanceComputer(3)
    one_chunk = _query_peak(rc, lap.PAIR_CHUNK)
    pairs = 10 * lap.PAIR_CHUNK + 1
    assert _query_peak(rc, pairs) - 8 * pairs <= one_chunk


def test_resistance_series_parallel():
    rc = lap.ResistanceComputer(0)
    b = np.nonzero(top.level_topology(rc.level).boundary_mask)[0]
    assert rc.resistance(b[0], b[1]) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rc.resistance(b[0], b[0]) == 0.0


@pytest.mark.parametrize("m", range(1, 6))
def test_resistance_renormalization(m):
    rc = lap.ResistanceComputer(m)
    b = np.nonzero(top.level_topology(rc.level).boundary_mask)[0]
    for x in range(3):
        for y in range(x + 1, 3):
            assert abs(rc.resistance(b[x], b[y]) - 2.0 / 3.0) < 1e-9


def test_resistance_metric_axioms():
    rc = lap.ResistanceComputer(3)
    n = top.level_topology(rc.level).n_vertices
    R = _pair_matrix(rc)
    assert np.allclose(R, R.T, atol=1e-12)
    assert np.all(np.abs(np.diag(R)) < 1e-12)
    off = R[~np.eye(n, dtype=bool)]
    assert np.all(off > 0)
    rng = np.random.default_rng(11)
    for _ in range(300):
        x, y, z = rng.choice(n, size=3, replace=False)
        assert R[x, z] <= R[x, y] + R[y, z] + 1e-12


def test_resistance_vs_euclidean_ratio():
    rc = lap.ResistanceComputer(4)
    topo = top.level_topology(rc.level)
    R = _pair_matrix(rc)
    d = np.sqrt(((topo.coords[:, None, :] - topo.coords[None, :, :]) ** 2).sum(-1))
    mask = ~np.eye(topo.n_vertices, dtype=bool)
    ratio = R[mask] / d[mask] ** (math.log(5 / 3) / math.log(2))
    assert 0.1 < ratio.min() and ratio.max() < 10.0


def test_holder_seminorm():
    rc = lap.ResistanceComputer(4)
    topo = top.level_topology(rc.level)
    R = _pair_matrix(rc)
    assert _holder_seminorm(np.ones(topo.n_vertices), R, 1.0) == 0.0
    h = HarmonicFunction([0.0, 1.0, 0.0]).sample(topo)
    s = _holder_seminorm(h, R, 1.0)
    assert np.isfinite(s) and s > 0
    with pytest.raises(ValueError):
        _holder_seminorm(h, R, 0.0)


def test_holder_pair_ratio_monotone_in_alpha():
    # for a fixed pair with R < 1 the ratio |df| / R^alpha grows with alpha
    rc = lap.ResistanceComputer(3)
    topo = top.level_topology(rc.level)
    h = HarmonicFunction([0.0, 1.0, 0.0]).sample(topo)
    x, y = topo.interior_indices[0], topo.interior_indices[1]
    r = rc.resistance(x, y)
    assert r < 1.0
    df = abs(h[x] - h[y])
    ratios = [df / r ** a for a in (0.25, 0.5, 1.0)]
    assert ratios[0] < ratios[1] < ratios[2]


def test_eigen_residual_memory():
    # the six j=7 N=4 basis at m_q=7: four row gathers and in-place updates
    # hold two arrays of the input's size at a time; a gather of all four
    # neighbours at once would hold a temporary four times the input
    group = sz._canonical_group("six", 7, 7)
    full = sz.basis_columns(group, 7)[0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        residual = lap.eigen_residual(7, full, group.gamma(7)[0])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert residual <= 1e-9
    assert peak < 2.5 * full.nbytes, peak / full.nbytes
