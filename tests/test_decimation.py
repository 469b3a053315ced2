import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from sgszego import decimation as dec
from sgszego import eigenbasis as eb
from sgszego import laplacian as lap
from sgszego import topology as top


def test_gamma_step_values():
    assert dec.gamma_step(2.0, -1) == pytest.approx((5 - math.sqrt(17)) / 2, abs=1e-14)
    assert dec.gamma_step(5.0, -1) == pytest.approx((5 - math.sqrt(5)) / 2, abs=1e-14)
    assert dec.gamma_step(6.0, 1) == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(ValueError):
        dec.gamma_step(7.0, -1)


def test_gamma_step_matches_dense_level_two():
    evals, _ = lap.cached_dense_spectrum(2)
    rounded = np.round(evals, 9)
    assert round(dec.gamma_step(2.0, -1), 9) in rounded
    low5 = round(dec.gamma_step(5.0, -1), 9)
    assert Counter(rounded)[low5] == 2


@pytest.mark.parametrize("m", range(1, 8))
def test_multiplicity_count_identity(m):
    table = dec.enumerate_spectrum(m)
    assert table.total_multiplicity == (3 ** (m + 1) - 3) // 2


def test_per_birth_entry_counts():
    m = 5
    table = dec.enumerate_spectrum(m)
    counts = Counter((d.series, d.birth) for d in table.entries)
    assert counts[("two", 1)] == 2 ** (m - 1)
    for j in range(1, m + 1):
        assert counts[("five", j)] == 2 ** (m - j)
    for j in range(2, m):
        assert counts[("six", j)] == 2 ** (m - j - 1)
    assert counts[("six", m)] == 1


def test_level_one_spectrum():
    table = dec.enumerate_spectrum(1)
    kinds = {(d.series, d.gammas[-1], d.multiplicity) for d in table.entries}
    assert kinds == {("two", 2.0, 1), ("five", 5.0, 2)}
    assert table.total_multiplicity == 3


@pytest.mark.parametrize("m", range(1, 6))
def test_oracle_equivalence(m):
    table = dec.enumerate_spectrum(m)
    mine = np.sort(
        np.concatenate([[d.gammas[-1]] * d.multiplicity for d in table.entries])
    )
    dense, _ = lap.cached_dense_spectrum(m)
    assert np.max(np.abs(np.sort(dense) - mine)) < 1e-9


def test_six_series_forced_sign():
    with pytest.raises(ValueError):
        dec.make_descriptor("six", 2, (-1,))


def test_fixation():
    assert dec.make_descriptor("two", 1, (-1, -1, -1)).fixation == 2
    assert dec.make_descriptor("two", 1, (1, -1, -1)).fixation == 3
    assert dec.make_descriptor("five", 2, (-1, 1, -1)).fixation == 5
    # the forced +1 after a 6-series birth counts even with an empty word
    assert dec.make_descriptor("six", 3, ()).fixation == 5
    assert dec.make_descriptor("six", 3, (1, -1)).fixation == 5


def test_renormalized_lambda_convergence():
    d = dec.make_descriptor("two", 1, (-1,))
    lam40 = dec.renormalized_lambda(d, 40)
    lam41 = dec.renormalized_lambda(d, 41)
    lam60 = dec.renormalized_lambda(d, 60)
    assert abs(lam41 - lam40) / lam40 < 1e-12
    assert abs(lam60 - lam40) / lam40 < 1e-12
    with pytest.raises(ValueError):
        dec.renormalized_lambda(d, 1)


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
    base = dec.make_descriptor("five", 1, (-1,))
    longer = dec.make_descriptor("five", 1, (-1, -1))
    assert dec.renormalized_lambda(base, 40) == pytest.approx(
        dec.renormalized_lambda(longer, 40), rel=1e-12
    )


def test_gamma_at():
    d = dec.make_descriptor("five", 2, (1,))
    assert d.gamma_at(2) == 5.0
    assert d.gamma_at(3) == pytest.approx((5 + math.sqrt(5)) / 2)
    assert d.gamma_at(4) == pytest.approx(dec.gamma_step(d.gamma_at(3), -1))
    with pytest.raises(ValueError):
        d.gamma_at(1)


def test_extension_zero_and_linearity():
    rng = np.random.default_rng(3)
    n = top.level_topology(2).n_vertices
    gamma = 1.2
    zero = dec.extend_eigenfunction(np.zeros(n), 3, gamma)
    assert np.all(zero == 0.0)
    u = rng.normal(size=n)
    v = rng.normal(size=n)
    left = dec.extend_eigenfunction(2.0 * u - 3.0 * v, 3, gamma)
    right = 2.0 * dec.extend_eigenfunction(u, 3, gamma) - 3.0 * dec.extend_eigenfunction(v, 3, gamma)
    assert left == pytest.approx(right, abs=1e-12)


def test_extension_forbidden_gamma():
    n = top.level_topology(1).n_vertices
    for bad in (2.0, 5.0, 6.0):
        with pytest.raises(ValueError):
            dec.extend_eigenfunction(np.zeros(n), 2, bad)


def test_extension_of_birth_eigenvector():
    # gamma_1 = 5 eigenvector extended with sign -1 becomes a gamma_2 =
    # (5 - sqrt 5)/2 eigenvector of -Delta_2
    desc = dec.make_descriptor("five", 1, (-1,))
    vals = dec.birth_eigenvectors(desc)
    g2 = dec.gamma_step(5.0, -1)
    ext = dec.extend_eigenfunction(vals, 2, g2)
    g = lap.level_graph(2)
    for c in range(ext.shape[1]):
        assert lap.eigen_residual(g, ext[:, c], g2) < 1e-9


def _birth_residuals(desc, full):
    """eigen_residual of every column at the birth eigenvalue."""
    g = lap.level_graph(desc.birth)
    return [lap.eigen_residual(g, full[:, c], desc.gammas[0]) for c in range(full.shape[1])]


def _birth_cases(j_max):
    yield dec.make_descriptor("two", 1, ())
    for j in range(1, j_max + 1):
        yield dec.make_descriptor("five", j, ())
    for j in range(2, j_max + 1):
        yield dec.make_descriptor("six", j, ())


@pytest.mark.parametrize("desc", _birth_cases(6), ids=lambda d: f"{d.series}-{d.birth}")
def test_birth_eigenvectors_match_dense(desc):
    full = dec.birth_eigenvectors(desc)
    interior = top.level_topology(desc.birth).interior_indices
    assert np.all(full[top.level_topology(desc.birth).boundary_mask] == 0.0)
    evals, evecs = lap.cached_dense_spectrum(desc.birth)
    dense = evecs[:, np.abs(evals - desc.gammas[0]) < 1e-6]
    assert full.shape[1] == dense.shape[1] == desc.multiplicity
    assert eb.principal_angle_gap(full[interior], dense, desc.birth) < 1e-10
    assert max(_birth_residuals(desc, full)) <= 1e-9
    if desc.series == "five":
        assert np.max(np.abs(full.T @ full - np.eye(desc.multiplicity))) <= 1e-12


@pytest.mark.parametrize("series", ["five", "six"])
def test_birth_eigenvectors_level_seven_without_dense_solve(series):
    desc = dec.make_descriptor(series, 7, ())
    full = dec.birth_eigenvectors(desc)
    assert full.shape[1] == desc.multiplicity
    assert max(_birth_residuals(desc, full)) <= 1e-9
    if series == "five":
        assert np.max(np.abs(full.T @ full - np.eye(desc.multiplicity))) <= 1e-12
    assert not full.flags.writeable


def test_birth_eigenvectors_dimension_check():
    # a descriptor claiming the wrong multiplicity is refused
    desc = dataclasses.replace(dec.make_descriptor("six", 3, ()), multiplicity=11)
    with pytest.raises(AssertionError):
        dec.birth_eigenvectors(desc)


def test_eigenfunctions_at_level_residuals():
    g4 = lap.level_graph(4)
    for series, j in [("two", 1), ("five", 2), ("six", 2), ("six", 3)]:
        desc = [
            e for e in dec.enumerate_spectrum(4).entries
            if e.series == series and e.birth == j
        ][0]
        vals = dec.eigenfunctions_at_level(desc, 4)
        assert vals.shape[1] == desc.multiplicity
        for c in range(vals.shape[1]):
            assert lap.eigen_residual(g4, vals[:, c], desc.gamma_at(4)) < 1e-9


def test_extension_touches_linear_work():
    # one extension step allocates exactly the target level's vertex count
    out = dec.extend_eigenfunction(np.zeros(top.level_topology(3).n_vertices), 4, 1.3)
    assert out.shape[0] == top.level_topology(4).n_vertices


def test_spectrum_export(tmp_path):
    table = dec.enumerate_spectrum(3)
    path = tmp_path / "spectrum.csv"
    dec.export_spectrum_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("series,birth,signs")
    assert len(lines) == 1 + len(table.entries)


def _vertex_key_extension_maps(k):
    """Reference: the extension maps read off vertex keys word by word."""
    parent = top.level_topology(k - 1)
    child = top.level_topology(k)
    child_corner = np.empty((len(parent.cells), 3), dtype=np.int64)
    child_mid = np.empty((len(parent.cells), 3), dtype=np.int64)
    for ci, w in enumerate(parent.cells):
        for c in (1, 2, 3):
            child_corner[ci, c - 1] = child.index_by_key[top.vertex_key(w + (c,), c)]
        for r, (p, q) in zip((1, 2, 3), ((2, 3), (1, 3), (1, 2))):
            child_mid[ci, r - 1] = child.index_by_key[top.vertex_key(w + (p,), q)]
    return parent.cell_vertices, child_corner, child_mid


@pytest.mark.parametrize("k", range(1, 7))
def test_extension_maps_match_vertex_keys(k):
    for mine, ref in zip(dec._extension_maps(k), _vertex_key_extension_maps(k)):
        assert np.array_equal(mine, ref)
