import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from sgszego import cli
from sgszego import decimation as dec
from sgszego import laplacian as lap
from sgszego import szego as sz
from sgszego import topology as top

from subspaces import (cached_dense_spectrum, cell_tree, corner_normal_derivatives,
                       dirichlet_laplacian, eigenfunctions_at_level, extend_eigenfunction,
                       extend_values, extension_maps, five_series_remainder, index_of,
                       joined_five_series_step, lattice_keys, on_level, on_vertices, one_word,
                       principal_angle_gap, reference_laplacian, scalar_spectrum,
                       six_series_birth_by_qr, six_series_remainder_by_solve,
                       topology_junction_nullspace, words_of)


def test_gamma_step_values():
    assert dec.gamma_step(2.0, -1) == pytest.approx((5 - math.sqrt(17)) / 2, abs=1e-14)
    assert dec.gamma_step(5.0, -1) == pytest.approx((5 - math.sqrt(5)) / 2, abs=1e-14)
    assert dec.gamma_step(6.0, 1) == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(ValueError):
        dec.gamma_step(7.0, -1)


def test_gamma_step_matches_dense_level_two():
    evals, _ = cached_dense_spectrum(2)
    rounded = np.round(evals, 9)
    assert round(dec.gamma_step(2.0, -1), 9) in rounded
    low5 = round(dec.gamma_step(5.0, -1), 9)
    assert Counter(rounded)[low5] == 2


@pytest.mark.parametrize("m", range(1, 8))
def test_multiplicity_count_identity(m):
    groups = dec.enumerate_spectrum(m)
    assert sum(len(g) * g.multiplicity for g in groups) == (3 ** (m + 1) - 3) // 2


def test_per_birth_entry_counts():
    m = 5
    counts = {(g.series, g.birth): len(g) for g in dec.enumerate_spectrum(m)}
    assert counts[("two", 1)] == 2 ** (m - 1)
    for j in range(1, m + 1):
        assert counts[("five", j)] == 2 ** (m - j)
    for j in range(2, m):
        assert counts[("six", j)] == 2 ** (m - j - 1)
    assert counts[("six", m)] == 1


def test_level_one_spectrum():
    groups = dec.enumerate_spectrum(1)
    kinds = {(g.series, gamma, g.multiplicity) for g in groups for gamma in g.gammas[:, -1]}
    assert kinds == {("two", 2.0, 1), ("five", 5.0, 2)}
    assert sum(len(g) * g.multiplicity for g in groups) == 3


@pytest.mark.parametrize("m", range(1, 6))
def test_oracle_equivalence(m):
    mine = np.sort(np.concatenate(
        [np.repeat(g.gammas[:, -1], g.multiplicity) for g in dec.enumerate_spectrum(m)]))
    dense, _ = cached_dense_spectrum(m)
    assert np.max(np.abs(np.sort(dense) - mine)) < 1e-9


def test_six_series_forced_sign():
    with pytest.raises(ValueError):
        dec.make_groups([("six", 2, [(-1,)])])


@pytest.mark.parametrize("series,birth", [
    ("two", 2), ("two", 0), ("six", 1), ("six", 0), ("five", 0), ("five", -1), ("seven", 2)])
def test_make_descriptor_refuses_births_that_do_not_exist(series, birth):
    # the 2-series is born only at 1, the 5-series from 1 and the 6-series
    # from 2; none of these has a birth eigenspace to build, and the group
    # constructor refuses them as make_descriptor did
    with pytest.raises(ValueError):
        dec.make_groups([(series, birth, [()])])


def test_fixation():
    assert one_word("two", 1, (-1, -1, -1)).fixation[0] == 2
    assert one_word("two", 1, (1, -1, -1)).fixation[0] == 3
    assert one_word("five", 2, (-1, 1, -1)).fixation[0] == 5
    # the forced +1 after a 6-series birth counts even with an empty word
    assert one_word("six", 3, ()).fixation[0] == 5
    assert one_word("six", 3, (1, -1)).fixation[0] == 5


def _lambda_at(group, k):
    """(3/2) 5^k gamma_k of a group's first word, continued with all signs
    -1."""
    return 1.5 * 5.0**k * group.gamma(k)[0]


def test_renormalized_lambda_convergence():
    d = one_word("two", 1, (-1,))
    lam40 = d.lam[0]
    lam41 = _lambda_at(d, 41)
    lam60 = _lambda_at(d, 60)
    assert abs(lam41 - lam40) / lam40 < 1e-12
    assert abs(lam60 - lam40) / lam40 < 1e-12


@pytest.mark.parametrize("series,signs", [
    ("two", (-1,) * 45),
    # a +1 sign at level 45 leaves gamma near 5, far from the limit regime
    ("five", (-1,) * 43 + (1,)),
])
def test_lambda_of_a_word_past_level_40(series, signs):
    d = one_word(series, 1, signs)
    assert d.lam[0] == pytest.approx(_lambda_at(d, 90), rel=1e-12)
    if series == "two":  # the same eigenvalue as the short word
        assert d.lam[0] == pytest.approx(one_word("two", 1, (-1,)).lam[0], rel=1e-12)


def test_lambda_iteration_monotone():
    # 5^k gamma_k converges with geometrically shrinking increments
    g = 2.0
    seq = []
    for k in range(1, 30):
        seq.append(5.0**k * g)
        g = dec.gamma_step(g, -1)
    inc = np.abs(np.diff(seq)) / seq[:-1]
    # geometric decay with ratio about 1/5 until the increments hit roundoff
    assert np.all(inc[1:12] < 0.25 * inc[:11])
    assert inc[20] < 1e-14


def test_lambda_scaling_consistency():
    base = one_word("five", 1, (-1,))
    longer = one_word("five", 1, (-1, -1))
    assert _lambda_at(base, 40) == pytest.approx(_lambda_at(longer, 40), rel=1e-12)
    assert base.lam[0] == pytest.approx(longer.lam[0], rel=1e-12)


@pytest.mark.parametrize("m", range(1, 13))
def test_birth_groups_equal_the_scalar_enumeration(m):
    # every column of every group, the group order (smallest lambda first)
    # and the word order (lambda, stable over sign-word order) are those of
    # one descriptor per eigenvalue sorted by lambda and grouped
    groups, oracle = dec.enumerate_spectrum(m), scalar_spectrum(m)
    assert [(g.series, g.birth) for g in groups] == [(o[0].series, o[0].birth) for o in oracle]
    for group, descs in zip(groups, oracle):
        assert len(group) == len(descs)
        assert {group.multiplicity} == {d.multiplicity for d in descs}
        assert np.array_equal(group.signs, np.array([d.signs for d in descs]).reshape(len(descs), -1))
        assert np.array_equal(group.gammas, [d.gammas for d in descs])
        assert np.array_equal(group.lam, [d.lam for d in descs])
        assert np.array_equal(group.fixation, [d.fixation for d in descs])
        for k in (m + 1, m + 5):  # continued past the stored words
            assert np.array_equal(group.gamma(k), [d.gamma_at(k) for d in descs])


def test_gamma_at():
    d = one_word("five", 2, (1,))
    assert d.gamma(2)[0] == 5.0
    assert d.gamma(3)[0] == pytest.approx((5 + math.sqrt(5)) / 2)
    assert d.gamma(4)[0] == pytest.approx(dec.gamma_step(d.gamma(3)[0], -1))
    with pytest.raises(ValueError):
        d.gamma(1)


def test_extension_zero_and_linearity():
    rng = np.random.default_rng(3)
    n = top.level_topology(2).n_vertices
    gamma = 1.2
    zero = extend_eigenfunction(np.zeros(n), 3, gamma)
    assert np.all(zero == 0.0)
    u = rng.normal(size=n)
    v = rng.normal(size=n)
    left = extend_eigenfunction(2.0 * u - 3.0 * v, 3, gamma)
    right = 2.0 * extend_eigenfunction(u, 3, gamma) - 3.0 * extend_eigenfunction(v, 3, gamma)
    assert left == pytest.approx(right, abs=1e-12)


def test_extension_forbidden_gamma():
    n = top.level_topology(1).n_vertices
    for bad in (2.0, 5.0, 6.0):
        with pytest.raises(ValueError):
            extend_eigenfunction(np.zeros(n), 2, bad)


def test_extension_refuses_a_forbidden_gamma_in_any_slice():
    # one gamma per slice of axis 1: a single forbidden one refuses the stack
    values = np.zeros((top.level_topology(2).n_vertices, 4, 2))
    with pytest.raises(ValueError):
        extend_eigenfunction(values, 3, [1.2, 0.3, 5.0, 3.1])
    extended = extend_eigenfunction(values, 3, [1.2, 0.3, 4.9, 3.1])
    assert extended.shape == (top.level_topology(3).n_vertices, 4, 2)


def test_extension_of_birth_eigenvector():
    # gamma_1 = 5 eigenvector extended with sign -1 becomes a gamma_2 =
    # (5 - sqrt 5)/2 eigenvector of -Delta_2
    vals = on_level(dec.remainder("five", 1), 1)
    g2 = dec.gamma_step(5.0, -1)
    ext = extend_eigenfunction(vals, 2, g2)
    for c in range(ext.shape[1]):
        assert lap.eigen_residual(2, ext[:, c], g2) < 1e-9


def _tree_birth_space(series, j):
    """The cell tree of a birth space assembled on V_j: the columns of each
    depth k copied into every k-cell, depth by depth from the root."""
    n = top.level_topology(j).n_vertices
    columns = []
    for k, vals in cell_tree(series, j):
        copies = np.zeros((n, 3**k, vals.shape[1]))
        copies[top.cell_embedding(j, k), np.arange(3**k)[:, None]] = vals
        columns.append(copies.reshape(n, -1))
    return np.hstack(columns)


def _birth_residuals(group, full):
    """eigen_residual of every column at the birth eigenvalue."""
    return [lap.eigen_residual(group.birth, full[:, c], group.gammas[0, 0])
            for c in range(full.shape[1])]


def _birth_cases(j_max):
    yield one_word("two", 1, ())
    for j in range(1, j_max + 1):
        yield one_word("five", j, ())
    for j in range(2, j_max + 1):
        yield one_word("six", j, ())


@pytest.mark.parametrize("desc", _birth_cases(6), ids=lambda d: f"{d.series}-{d.birth}")
def test_birth_eigenvectors_match_dense(desc):
    full = _tree_birth_space(desc.series, desc.birth)
    interior = top.level_topology(desc.birth).interior_indices
    assert np.all(full[top.level_topology(desc.birth).boundary_mask] == 0.0)
    evals, evecs = cached_dense_spectrum(desc.birth)
    dense = evecs[:, np.abs(evals - desc.gammas[0, 0]) < 1e-6]
    assert full.shape[1] == dense.shape[1] == desc.multiplicity
    assert principal_angle_gap(full[interior], dense, desc.birth) < 1e-10
    assert max(_birth_residuals(desc, full)) <= 1e-9
    # every series is orthonormal in plain coordinates at birth
    assert np.max(np.abs(full.T @ full - np.eye(desc.multiplicity))) <= 1e-12


@pytest.mark.parametrize("series", ["five", "six"])
def test_birth_eigenvectors_level_seven_without_dense_solve(series):
    desc = one_word(series, 7, ())
    full = _tree_birth_space(series, 7)
    assert full.shape[1] == desc.multiplicity
    assert max(_birth_residuals(desc, full)) <= 1e-9
    assert np.max(np.abs(full.T @ full - np.eye(desc.multiplicity))) <= 1e-12
    assert not any(dec.remainder(series, i).flags.writeable for i in range(2, 8))


@pytest.mark.parametrize("j", range(2, 8))
def test_six_series_birth_from_known_gram(j):
    parent, topo = top.level_topology(j - 1), top.level_topology(j)
    # the Gram matrix of the gamma = 6 extensions of the interior unit vectors
    # of V_{j-1} is (6 I + L_{j-1}) / 4, with L_{j-1} = -Delta_{j-1}
    unit = np.eye(parent.n_vertices)[:, parent.interior_indices]
    ext = extend_values(unit, j, 6.0)[topo.interior_indices]
    d = top.interior_count(j - 1)
    gram = (6.0 * np.eye(d) + dirichlet_laplacian(j - 1)) / 4.0
    assert np.max(np.abs(ext.T @ ext - gram)) <= 1e-14
    # the cell tree spans the QR's orthonormal basis of the extensions
    full = _tree_birth_space("six", j)
    assert np.all(full[topo.boundary_mask] == 0.0)
    qr = six_series_birth_by_qr(j)
    assert principal_angle_gap(qr, full[topo.interior_indices], j) <= 1e-13
    assert np.max(np.abs(full.T @ full - np.eye(d))) <= 1e-14
    assert max(_birth_residuals(one_word("six", j, ()), full)) <= 1e-14


def _spy_linalg(monkeypatch):
    """The shapes of the arrays passed to any public function of np.linalg
    from here on."""
    shapes = []
    for name in dir(np.linalg):
        original = getattr(np.linalg, name)
        if name.startswith("_") or not callable(original) or isinstance(original, type):
            continue

        def spy(*args, _original=original, **kwargs):
            shapes.extend(np.shape(a) for a in list(args) + list(kwargs.values())
                          if isinstance(a, np.ndarray))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return shapes


@pytest.mark.parametrize("j", range(3, 10))
def test_six_series_remainder_matches_dense_solve(j):
    # decimation at gamma = -6 gives the dense formula's columns themselves,
    # not only their span, and they are orthonormal in plain coordinates;
    # the two cells at each shared vertex of the table agree
    rem = dec.six_series_corners(j)
    topo = top.level_topology(j)
    assert rem.shape == (3**j, 3, 3)
    full = on_level(rem, j)
    assert np.array_equal(full[topo.cell_vertices], rem)
    assert np.max(np.abs(full - six_series_remainder_by_solve(j))) <= 1e-15
    assert np.max(np.abs(full.T @ full - np.eye(3))) <= 1e-14
    assert np.all(full[topo.boundary_mask] == 0.0)
    assert not rem.flags.writeable


@pytest.mark.parametrize("j", [11, 12])
def test_six_series_remainder_past_gamma_overflow(j):
    # unclamped, (2 - g)(5 - g) overflows at j = 11 and g itself at j = 12
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rem = dec.six_series_corners(j)
    assert np.all(np.isfinite(rem))
    full = on_level(rem, j)
    assert np.max(np.abs(full.T @ full - np.eye(3))) <= 1e-14


def test_six_series_remainder_solves_nothing_beyond_three(monkeypatch):
    dec.six_series_corners.cache_clear()
    shapes = _spy_linalg(monkeypatch)
    dec.six_series_corners(8)
    assert shapes and max(max(shape) for shape in shapes) <= 3, shapes


def test_six_series_remainder_peak_memory():
    # j = 9 peaks far below one dense Gram matrix on the interior of V_7
    # (3279^2 float64, 82 MB), with no table of V_9 built
    dec.six_series_corners(9)
    dec.six_series_corners.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dec.six_series_corners(9)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_five_series_corners_peak_twice_their_table():
    # N5(i) and K5(i) are written into the one output table, the span freed
    # before K5 is signed: the tables are those of separate arrays joined
    # bit for bit for i <= 12, each from the level below, and i = 10 peaks
    # at most 2.1 times its table (2.0 measured; 3.3 when joined)
    for i in range(2, 13):
        expected = joined_five_series_step(dec.five_series_corners(i - 1))
        assert np.array_equal(dec.five_series_corners(i), expected), i
    dec.five_series_corners.cache_clear()
    dec.five_series_corners(9)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = dec.five_series_corners(10)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
        dec.five_series_corners.cache_clear()
    assert peak <= 2.1 * table.nbytes, peak / table.nbytes


@pytest.mark.parametrize("i", range(1, 13))
def test_five_series_corners_match_the_full_vector_oracle(i):
    # the columns, not only their span, of the recursion on full vectors of
    # V_i, read at the cells' corners, within 1e-15 of each column's largest
    table = dec.five_series_corners(i)
    oracle = five_series_remainder(i)[top.level_topology(i).cell_vertices]
    assert table.shape == oracle.shape == (3**i, 3, 2 if i == 1 else 3)
    moved = np.max(np.abs(table - oracle), axis=(0, 1))
    assert np.all(moved <= 1e-15 * np.max(np.abs(oracle), axis=(0, 1))), moved


@pytest.mark.parametrize("i", range(2, 8))
def test_five_series_remainder_splits_into_glue_and_kept(i):
    # R5(i) is orthonormal and zero on V_0; its normal derivatives at the
    # corners of V_0 vanish on K5(i), its last column, and have rank 2 on
    # N5(i), its first two; the two cells at each shared vertex agree
    rem = dec.five_series_corners(i)
    topo = top.level_topology(i)
    assert rem.shape == (3**i, 3, 3)
    full = on_level(rem, i)
    assert np.array_equal(full[topo.cell_vertices], rem)
    assert np.all(full[topo.boundary_mask] == 0.0)
    assert np.max(np.abs(full.T @ full - np.eye(3))) <= 1e-14
    normal = dec.normal_derivatives(rem)
    assert np.array_equal(normal, corner_normal_derivatives(full[topo.interior_indices], i))
    scale = np.max(np.abs(normal))
    assert np.max(np.abs(normal[:, 2])) <= 1e-13 * scale
    assert np.linalg.svd(normal[:, :2], compute_uv=False)[-1] >= 1e-3 * scale
    assert not rem.flags.writeable


def test_five_series_remainder_is_canonical(monkeypatch):
    # the columns, not only their span, survive relative noise of 1e-16 in
    # every normal derivative: R5(i), and so N5(i) and K5(i), move by under
    # 1e-12 of their largest entry
    clean = {i: dec.five_series_corners(i).copy() for i in range(2, 10)}
    rng = np.random.default_rng(7)
    exact = dec.normal_derivatives

    def noisy(table):
        normal = exact(table)
        return normal * (1.0 + 1e-16 * rng.standard_normal(normal.shape))

    monkeypatch.setattr(dec, "normal_derivatives", noisy)
    dec.five_series_corners.cache_clear()
    try:
        for i, expected in clean.items():
            moved = np.max(np.abs(dec.five_series_corners(i) - expected), axis=(0, 1))
            assert np.all(moved <= 1e-12 * np.max(np.abs(expected))), (i, moved)
    finally:
        dec.five_series_corners.cache_clear()


def test_split_bases_factor_nothing_wider_than_six(monkeypatch):
    # the 5- and 6-series bases of birth 8 call np.linalg on the 3 x 6
    # junction matrix and on 3 x 3 and 2 x 2 Gram matrices only
    dec.five_series_corners.cache_clear()
    dec.six_series_corners.cache_clear()
    sz.tree_corners.cache_clear()
    shapes = _spy_linalg(monkeypatch)
    try:
        for series in ("five", "six"):
            sz.tree_corners(series, 8)
    finally:
        dec.five_series_corners.cache_clear()
        dec.six_series_corners.cache_clear()
        sz.tree_corners.cache_clear()
    assert shapes and max(max(shape) for shape in shapes) <= 6, shapes


@pytest.mark.parametrize("level", range(1, 7))
def test_corner_normal_derivatives_match_laplacian(level):
    topo = top.level_topology(level)
    full = np.zeros((topo.n_vertices, 4))
    full[topo.interior_indices] = np.random.default_rng(level).normal(
        size=(len(topo.interior_indices), 4))
    expected = (reference_laplacian(level) @ full)[topo.boundary_mask]
    normal = dec.normal_derivatives(full[topo.cell_vertices])
    assert np.allclose(normal, expected, rtol=0.0, atol=1e-14)


def test_junction_nullspace():
    # the normal derivatives of E5(2) and of N5(2) glued at the three
    # junctions of V_1: a 3 x 9 and the 3 x 6 matrix of the remainder.  The
    # fixed pattern of the midpoints gives the matrix read off V_1's cells
    normal = dec.normal_derivatives(dec.five_series_corners(2))
    for q in (3, 2):
        null = dec.junction_nullspace(normal[:, :q])
        assert null.shape == (3 * q, 3 * q - 3)
        assert np.max(np.abs(null.T @ null - np.eye(3 * q - 3))) <= 1e-14
        assert np.array_equal(null, topology_junction_nullspace(normal[:, :q]))
    # two corner derivatives that vanish together make two junctions the same row
    with pytest.raises(AssertionError):
        dec.junction_nullspace(np.array([[1.0], [1.0], [0.0]]))


def test_birth_eigenvectors_dimension_check():
    # a group claiming the wrong multiplicity is refused by the cell tree
    for series, j, wrong in (("six", 3, 11), ("five", 3, 5)):
        group = dataclasses.replace(one_word(series, j, ()), multiplicity=wrong)
        with pytest.raises(AssertionError):
            sz.localized_columns(group, None)


def test_eigenfunctions_at_level_residuals():
    for series, j in [("two", 1), ("five", 2), ("six", 2), ("six", 3)]:
        group = next(g for g in dec.enumerate_spectrum(4) if (g.series, g.birth) == (series, j))
        group = words_of(group, slice(1))  # its word of the smallest lambda
        vals = eigenfunctions_at_level(group, 4, _tree_birth_space(series, j))
        vals = on_vertices(4, vals)[:, 0]
        assert vals.shape[1] == group.multiplicity
        for c in range(vals.shape[1]):
            assert lap.eigen_residual(4, vals[:, c], group.gamma(4)[0]) < 1e-9


def test_extension_touches_linear_work():
    # one extension step allocates exactly the target level's vertex count
    out = extend_eigenfunction(np.zeros(top.level_topology(3).n_vertices), 4, 1.3)
    assert out.shape[0] == top.level_topology(4).n_vertices


def test_spectrum_export(tmp_path):
    groups = dec.enumerate_spectrum(3)
    assert cli.main(["spectrum", "--m", "3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("series,birth,signs")
    assert len(lines) == 2 + sum(map(len, groups))


def _vertex_key_extension_maps(k):
    """Reference: the extension maps read off vertex keys word by word."""
    parent = top.level_topology(k - 1)
    child = top.level_topology(k)
    child_corner = np.empty((3 ** (k - 1), 3), dtype=np.int64)
    child_mid = np.empty((3 ** (k - 1), 3), dtype=np.int64)
    # the word w + (c,) has rank 3 * rank(w) + c - 1 in lexicographic order
    for ci in range(3 ** (k - 1)):
        for c in (1, 2, 3):
            child_corner[ci, c - 1] = index_of(child, lattice_keys(3 * ci + c - 1, k, c))
        for r, (p, q) in zip((1, 2, 3), ((2, 3), (1, 3), (1, 2))):
            child_mid[ci, r - 1] = index_of(child, lattice_keys(3 * ci + p - 1, k, q))
    return parent.cell_vertices, child_corner, child_mid


@pytest.mark.parametrize("k", range(1, 7))
def test_extension_maps_match_vertex_keys(k):
    for mine, ref in zip(extension_maps(k), _vertex_key_extension_maps(k)):
        assert np.array_equal(mine, ref)
