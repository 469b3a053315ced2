import numpy as np
import pytest

from sgszego import decimation as dec
from sgszego import eigenbasis as eb
from sgszego import laplacian as lap
from sgszego import topology as top
from sgszego.decimation import make_descriptor


def _canonical(series, j, m):
    n = m - j
    if series == "six":
        signs = (1,) + (-1,) * max(n - 1, 0) if n > 0 else ()
    else:
        signs = (-1,) * n
    return make_descriptor(series, j, signs)


def _dense_eigenspace(desc, m_q):
    """Reference: the eigenvalue cluster of a dense solve of -Delta_{m_q}."""
    evals, evecs = lap.cached_dense_spectrum(m_q)
    sel = np.abs(evals - desc.gamma_at(m_q)) < 1e-6
    if int(sel.sum()) != desc.multiplicity:
        raise AssertionError("dense eigenspace dimension mismatch")
    return evecs[:, sel]


def test_eigenspace_column_counts():
    assert eb.eigenspace_vectors(_canonical("five", 1, 3), 3).shape[1] == 2
    assert eb.eigenspace_vectors(_canonical("six", 2, 3), 3).shape[1] == 3
    assert eb.eigenspace_vectors(_canonical("two", 1, 4), 4).shape[1] == 1


@pytest.mark.parametrize(
    "series,j,m_q", [("five", 2, 4), ("six", 2, 4), ("six", 3, 4), ("two", 1, 3)]
)
def test_extension_matches_dense(series, j, m_q):
    desc = _canonical(series, j, m_q)
    a = eb.eigenspace_vectors(desc, m_q)
    b = _dense_eigenspace(desc, m_q)
    assert a.shape == b.shape
    assert eb.principal_angle_gap(a, b, m_q) < 1e-8


def test_orthonormalize():
    desc = _canonical("six", 2, 4)
    basis = eb.plain_basis(desc, 4)
    assert eb.orthonormality_check(basis) < 1e-10
    assert basis.localized_count == 0
    # doubling a column makes the inputs dependent
    raw = eb.eigenspace_vectors(desc, 4)
    with pytest.raises(ValueError):
        eb.orthonormalize(np.hstack([raw, raw[:, :1]]), 4)


@pytest.mark.parametrize("scale", [1, 2, 3])
@pytest.mark.parametrize("j", [2, 3, 4, 5])
def test_six_series_localized_dimensions(scale, j):
    if scale >= j:
        pytest.skip("scale must be below the generation of birth")
    m_q = min(j + 1, 6)
    desc = _canonical("six", j, m_q)
    raw = eb.eigenspace_vectors(desc, m_q)
    basis = eb.localize_basis(raw, desc, m_q, scale)
    per_cell = (3 ** (j - scale) - 3) // 2
    assert basis.localized_count == 3**scale * per_cell
    assert basis.nonlocalized_count == (3 ** (scale + 1) - 3) // 2
    assert basis.localized_count + basis.nonlocalized_count == desc.multiplicity
    # localization is symmetric across the cells of the scale
    for cell in top.enumerate_cells(scale):
        assert basis.localized_count_for_cell(cell) == per_cell


@pytest.mark.parametrize("scale,j", [(1, 2), (1, 3), (2, 3), (2, 4)])
def test_five_series_localized_dimensions(scale, j):
    m_q = min(j + 1, 6)
    desc = _canonical("five", j, m_q)
    raw = eb.eigenspace_vectors(desc, m_q)
    basis = eb.localize_basis(raw, desc, m_q, scale)
    # the non-localized remainder has one vector per interior hole of the
    # scale plus the boundary contribution: (3^scale + 3) / 2 in total
    assert basis.nonlocalized_count == (3**scale + 3) // 2
    per_cell = (3 ** (j - 1 - scale) * 3 - 3) // 2 if j - scale >= 1 else 0
    assert basis.localized_count == desc.multiplicity - (3**scale + 3) // 2


def test_localized_vectors_vanish_outside():
    desc = _canonical("six", 3, 4)
    basis = eb.localize_basis(eb.eigenspace_vectors(desc, 4), desc, 4, 1)
    for c, tag in enumerate(basis.tags):
        if tag != eb.NONLOCALIZED:
            assert eb.max_outside_value(basis, c) < 1e-10


def test_localized_basis_orthonormal_and_span_preserving():
    desc = _canonical("six", 3, 4)
    raw = eb.eigenspace_vectors(desc, 4)
    basis = eb.localize_basis(raw, desc, 4, 1)
    assert basis.dimension == desc.multiplicity
    assert eb.orthonormality_check(basis) < 1e-10
    assert eb.principal_angle_gap(raw, basis.vectors, 4) < 1e-8


def test_distinct_cell_columns_orthogonal():
    desc = _canonical("six", 3, 4)
    basis = eb.localize_basis(eb.eigenspace_vectors(desc, 4), desc, 4, 1)
    g = eb.gram_matrix(basis)
    for a in range(basis.dimension):
        for b in range(a + 1, basis.dimension):
            ta, tb = basis.tags[a], basis.tags[b]
            if eb.NONLOCALIZED not in (ta, tb) and ta != tb:
                assert abs(g[a, b]) < 1e-12


def test_localization_scale_warning():
    desc = _canonical("six", 2, 4)
    basis = eb.localize_basis(eb.eigenspace_vectors(desc, 4), desc, 4, 2)
    assert basis.warning != ""
    basis_ok = eb.localize_basis(eb.eigenspace_vectors(desc, 4), desc, 4, 1)
    assert basis_ok.warning == ""


def test_cross_eigenspace_orthogonality():
    m_q = 4
    topo = top.level_topology(m_q)
    w = top.interior_weight(m_q)
    d1 = _canonical("five", 2, m_q)
    d2 = _canonical("six", 2, m_q)
    b1 = eb.plain_basis(d1, m_q).vectors
    b2 = eb.plain_basis(d2, m_q).vectors
    cross = w * b1.T @ b2
    assert np.max(np.abs(cross)) < 1e-9


def test_max_outside_value_rejects_nonlocalized():
    desc = _canonical("five", 1, 3)
    basis = eb.plain_basis(desc, 3)
    with pytest.raises(ValueError):
        eb.max_outside_value(basis, 0)


def test_basis_export(tmp_path):
    desc = _canonical("six", 2, 3)
    basis = eb.localize_basis(eb.eigenspace_vectors(desc, 3), desc, 3, 1)
    path = tmp_path / "basis.csv"
    eb.export_basis_csv(basis, path)
    lines = path.read_text().strip().splitlines()
    n_int = len(top.level_topology(3).interior_indices)
    assert len(lines) == 1 + basis.dimension * n_int


# Reference oracle: the numerical search that localize_basis replaced.  The
# localized subspace of a cell is the nullspace of the eigenspace restricted
# to the interior vertices outside the cell, found from the small Gram matrix
# of the rows inside the cell (eigenvalue 1 there means zero outside).
SV_THRESHOLD = 1e-8


def _searched_localization(raw, m_q, scale):
    """{cell: plain-coordinate columns vanishing outside the closed cell}."""
    topo = top.level_topology(m_q)
    w = top.interior_weight(m_q)
    basis = np.sqrt(w) * eb.orthonormalize(raw, m_q)
    cell_rows = {}
    for row, idx in enumerate(topo.interior_indices):
        for cell in topo.cells_of_vertex(idx, scale):
            cell_rows.setdefault(cell, []).append(row)
    threshold = max(SV_THRESHOLD**2, 64 * basis.shape[1] * np.finfo(float).eps)
    found = {}
    for cell, rows in sorted(cell_rows.items()):
        evals, evecs = np.linalg.eigh(basis[rows].T @ basis[rows])
        null = evecs[:, (1.0 - evals) <= threshold]
        if null.shape[1]:
            found[cell] = basis @ null / np.sqrt(w)
    return found


def _oracle_grid():
    for series, first in (("five", 1), ("six", 2)):
        for j in range(first, 6):
            for scale in range(j):
                yield _canonical(series, j, j + 1), j + 1, scale
    for desc in dec.enumerate_spectrum(5).entries:
        if desc.series != "two":
            for scale in range(desc.birth):
                yield desc, 6, scale


def test_transplants_match_searched_localization():
    for desc, m_q, scale in _oracle_grid():
        case = (desc.series, desc.birth, desc.signs, m_q, scale)
        raw = eb.eigenspace_vectors(desc, m_q)
        basis = eb.localize_basis(raw, desc, m_q, scale)
        found = _searched_localization(raw, m_q, scale)
        built = {}
        for c, tag in enumerate(basis.tags):
            if tag != eb.NONLOCALIZED:
                built.setdefault(tag, []).append(c)
        assert {cell: len(cols) for cell, cols in built.items()} == {
            cell: vecs.shape[1] for cell, vecs in found.items()
        }, case
        for cell, cols in built.items():
            gap = eb.principal_angle_gap(basis.vectors[:, cols], found[cell], m_q)
            assert gap < 1e-10, (case, cell, gap)
        topo = top.level_topology(m_q)
        full = np.zeros((topo.n_vertices, basis.localized_count))
        full[topo.interior_indices] = basis.vectors[:, : basis.localized_count]
        # eigen_residual column by column, vectorized over the columns
        r = lap.apply_neg_laplacian(lap.level_graph(m_q), full) - desc.gamma_at(m_q) * full
        residual = np.max(np.abs(r[topo.interior_indices]), axis=0) / np.max(np.abs(full), axis=0)
        assert np.all(residual <= 1e-9), (case, float(np.max(residual)))
