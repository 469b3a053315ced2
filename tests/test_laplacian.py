import math

import numpy as np
import pytest

from sgszego import laplacian as lap
from sgszego import topology as top
from sgszego.functions import HarmonicFunction


@pytest.mark.parametrize("m", range(1, 8))
def test_degrees(m):
    g = lap.level_graph(m)
    deg = lap.degrees(g)
    mask = g.topology.boundary_mask
    assert np.all(deg[mask] == 2)
    assert np.all(deg[~mask] == 4)


def test_level_one_matrix():
    L = lap.assemble_dirichlet_laplacian(lap.level_graph(1))
    assert L.matrix.shape == (3, 3)
    evals, evecs = lap.dense_dirichlet_spectrum(L)
    assert evals == pytest.approx([2.0, 5.0, 5.0], abs=1e-12)
    # orthonormal eigenvectors
    assert evecs.T @ evecs == pytest.approx(np.eye(3), abs=1e-12)


def test_level_two_spectrum():
    # analytic multiset from one decimation step applied to {2, 5, 5},
    # plus the eigenvalues born at level 2
    L = lap.assemble_dirichlet_laplacian(lap.level_graph(2))
    assert L.matrix.shape == (12, 12)
    assert np.trace(-L.matrix) == pytest.approx(48.0)
    evals, _ = lap.dense_dirichlet_spectrum(L)
    s17, s5 = math.sqrt(17), math.sqrt(5)
    expected = sorted(
        [(5 - s17) / 2, (5 + s17) / 2]
        + [(5 - s5) / 2] * 2
        + [(5 + s5) / 2] * 2
        + [5.0] * 3
        + [6.0] * 3
    )
    assert evals == pytest.approx(expected, abs=1e-9)


def _loop_dirichlet_matrix(g):
    """Reference: the Dirichlet Laplacian filled edge by edge."""
    pos = -np.ones(g.n_vertices, dtype=np.int64)
    pos[g.topology.interior_indices] = np.arange(len(g.topology.interior_indices))
    mat = np.zeros((len(g.topology.interior_indices),) * 2)
    np.fill_diagonal(mat, -4.0)
    for a, b in g.edges:
        ia, ib = pos[a], pos[b]
        if ia >= 0 and ib >= 0:
            mat[ia, ib] = 1.0
            mat[ib, ia] = 1.0
    return mat


@pytest.mark.parametrize("m", range(1, 6))
def test_vectorized_matrix_matches_edge_loop(m):
    g = lap.level_graph(m)
    mine = lap.assemble_dirichlet_laplacian(g).matrix
    assert mine.tobytes() == _loop_dirichlet_matrix(g).tobytes()


@pytest.mark.parametrize("m", range(1, 6))
def test_trace_identity(m):
    evals, _ = lap.cached_dense_spectrum(m)
    n = (3 ** (m + 1) - 3) // 2
    assert len(evals) == n
    assert abs(evals.sum() - 4.0 * n) / (4.0 * n) < 1e-12


def test_constant_vector_interior_rows():
    g = lap.level_graph(3)
    out = lap.apply_neg_laplacian(g, np.ones(g.n_vertices))
    boundary = set(np.nonzero(g.topology.boundary_mask)[0])
    has_boundary_neighbor = set()
    for a, b in g.edges:
        if a in boundary:
            has_boundary_neighbor.add(b)
        if b in boundary:
            has_boundary_neighbor.add(a)
    for i in g.topology.interior_indices:
        if i not in has_boundary_neighbor:
            assert out[i] == 0.0


@pytest.mark.parametrize("m", range(2, 5))
def test_dense_eigenpair_residuals(m):
    g = lap.level_graph(m)
    L = lap.assemble_dirichlet_laplacian(g)
    evals, evecs = lap.dense_dirichlet_spectrum(L)
    for k in range(len(evals)):
        full = np.zeros(g.n_vertices)
        full[L.interior] = evecs[:, k]
        assert lap.eigen_residual(g, full, evals[k]) < 1e-9


def _dense_resistance(m):
    """Reference: the resistance matrix from the pseudo-inverse of the
    Laplacian with edge conductance (5/3)^m, filled edge by edge."""
    g = lap.level_graph(m)
    c = (5.0 / 3.0) ** m
    L = np.zeros((g.n_vertices, g.n_vertices))
    for a, b in g.edges:
        L[a, b] -= c
        L[b, a] -= c
        L[a, a] += c
        L[b, b] += c
    p = np.linalg.pinv(L, hermitian=True)
    d = np.diag(p)
    return d[:, None] + d[None, :] - 2.0 * p


@pytest.mark.parametrize("m", range(0, 6))
def test_resistance_matches_dense_pinv(m):
    R = lap.ResistanceComputer(m).resistance_matrix()
    assert np.max(np.abs(R - _dense_resistance(m))) < 1e-12


def test_resistance_level_seven_without_dense_solve():
    rc = lap.ResistanceComputer(7)
    b = np.nonzero(rc.graph.topology.boundary_mask)[0]
    for x in range(3):
        for y in range(x + 1, 3):
            assert abs(rc.resistance(b[x], b[y]) - 2.0 / 3.0) < 1e-15
    R = rc.resistance_matrix()
    assert np.max(np.abs(R - R.T)) < 1e-14
    assert np.all(np.diag(R) == 0.0)


def test_resistance_series_parallel():
    rc = lap.ResistanceComputer(0)
    b = np.nonzero(rc.graph.topology.boundary_mask)[0]
    assert rc.resistance(b[0], b[1]) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rc.resistance(b[0], b[0]) == 0.0


@pytest.mark.parametrize("m", range(1, 6))
def test_resistance_renormalization(m):
    rc = lap.ResistanceComputer(m)
    b = np.nonzero(rc.graph.topology.boundary_mask)[0]
    for x in range(3):
        for y in range(x + 1, 3):
            assert abs(rc.resistance(b[x], b[y]) - 2.0 / 3.0) < 1e-9


def test_resistance_metric_axioms():
    rc = lap.ResistanceComputer(3)
    n = rc.graph.topology.n_vertices
    R = rc.resistance_matrix()
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
    topo = rc.graph.topology
    R = rc.resistance_matrix()
    d = np.sqrt(((topo.coords[:, None, :] - topo.coords[None, :, :]) ** 2).sum(-1))
    mask = ~np.eye(topo.n_vertices, dtype=bool)
    ratio = R[mask] / d[mask] ** (math.log(5 / 3) / math.log(2))
    assert 0.1 < ratio.min() and ratio.max() < 10.0


def test_holder_seminorm():
    rc = lap.ResistanceComputer(4)
    topo = rc.graph.topology
    assert lap.holder_seminorm(np.ones(topo.n_vertices), rc, 1.0) == 0.0
    h = HarmonicFunction([0.0, 1.0, 0.0]).sample(topo)
    s = lap.holder_seminorm(h, rc, 1.0)
    assert np.isfinite(s) and s > 0
    with pytest.raises(ValueError):
        lap.holder_seminorm(h, rc, 0.0)


def test_holder_pair_ratio_monotone_in_alpha():
    # for a fixed pair with R < 1 the ratio |df| / R^alpha grows with alpha
    rc = lap.ResistanceComputer(3)
    topo = rc.graph.topology
    h = HarmonicFunction([0.0, 1.0, 0.0]).sample(topo)
    x, y = topo.interior_indices[0], topo.interior_indices[1]
    r = rc.resistance(x, y)
    assert r < 1.0
    df = abs(h[x] - h[y])
    ratios = [df / r ** a for a in (0.25, 0.5, 1.0)]
    assert ratios[0] < ratios[1] < ratios[2]


@pytest.mark.parametrize("m", range(1, 5))
def test_matrix_export_matches_loop(m, tmp_path):
    L = lap.assemble_dirichlet_laplacian(lap.level_graph(m))
    path = tmp_path / "lap.coo"
    lap.export_matrix_coo(L, path)
    n = L.matrix.shape[0]
    ref = "".join(f"{i} {j} {float(L.matrix[i, j])!r}\n"
                  for i in range(n) for j in range(n) if L.matrix[i, j] != 0.0)
    assert path.read_text() == ref


def test_matrix_export(tmp_path):
    L = lap.assemble_dirichlet_laplacian(lap.level_graph(1))
    path = tmp_path / "lap.coo"
    lap.export_matrix_coo(L, path)
    rows = [line.split() for line in path.read_text().strip().splitlines()]
    assert ["0", "0", "-4.0"] in rows
