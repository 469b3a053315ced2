import dataclasses
import tracemalloc

import numpy as np
import pytest

from sgszego import cli
from sgszego import decimation as dec
from sgszego import laplacian as lap
from sgszego import szego as sz
from sgszego import topology as top
from sgszego.functions import HarmonicFunction, SimpleCellFunction

from subspaces import (cached_dense_spectrum, complement_by_qr, corner_normal_derivatives,
                       dense_matrix, dirichlet_laplacian, eigenfunctions_at_level,
                       eigenspace_vectors, extend_values, index_of, interior_cell_rows,
                       principal_angle_gap, scale_cells)


def _dense_eigenspace(group, m_q):
    """Reference: the eigenvalue cluster of a dense solve of -Delta_{m_q}."""
    evals, evecs = cached_dense_spectrum(m_q)
    sel = np.abs(evals - group.gamma(m_q)[0]) < 1e-6
    if int(sel.sum()) != group.multiplicity:
        raise AssertionError("dense eigenspace dimension mismatch")
    return evecs[:, sel]


def _outside_values(vectors, group, m_q):
    """Largest |value| of each column of `basis_columns`, over the group's
    eigenspaces, at the interior vertices of V_{m_q} outside its own cell."""
    inside = np.zeros(vectors.shape[1:], dtype=bool)
    topo = top.level_topology(m_q)
    for column, (k, rank) in enumerate(zip(*sz.column_cells(group))):
        cell = top.cell_embedding(m_q, k)[rank]
        inside[topo.interior_row[cell[~topo.boundary_mask[cell]]], column] = True
    return np.max(np.abs(np.where(inside, 0.0, vectors)), axis=(0, 1))


def test_eigenspace_column_counts():
    for series, j, m_q, d in (("five", 1, 3, 2), ("six", 2, 3, 3), ("two", 1, 4, 1)):
        vectors = sz.basis_columns(sz._canonical_group(series, j, m_q), m_q)
        assert vectors.shape == (1, top.interior_count(m_q), d)


@pytest.mark.parametrize(
    "series,j,m_q", [("five", 2, 4), ("six", 2, 4), ("six", 3, 4), ("two", 1, 3)]
)
def test_extension_matches_dense(series, j, m_q):
    group = sz._canonical_group(series, j, m_q)
    a = sz.basis_columns(group, m_q)[0]
    b = _dense_eigenspace(group, m_q)
    assert a.shape == b.shape
    assert principal_angle_gap(a, b, m_q) < 1e-8


def test_unsplit_basis_orthonormal():
    group = sz._canonical_group("six", 2, 4)
    assert sz.orthonormality_check(sz.basis_columns(group, 4), 4) < 1e-10
    assert sz.localized_columns(group, None) == 0


@pytest.mark.parametrize("scale", [None, 1])
def test_level_six_spectrum_orthonormal_at_level_seven(scale):
    # no factorization at the sampling level: orthonormality comes from the
    # birth basis and the norms of the cell kernels of f = 1; the scale
    # decides the localized count alone
    for group in dec.enumerate_spectrum(6):
        assert sz.localized_columns(group, scale) <= group.multiplicity
        assert sz.orthonormality_check(sz.basis_columns(group, 7), 7) <= 1e-12, \
            (group.series, group.birth)


@pytest.mark.parametrize("j,scale", [(j, scale) for j in range(2, 6) for scale in range(1, 4)
                                     if scale < j])
def test_six_series_localized_dimensions(j, scale):
    m_q = min(j + 1, 6)
    group = sz._canonical_group("six", j, m_q)
    localized = sz.localized_columns(group, scale)
    per_cell = (3 ** (j - scale) - 3) // 2
    assert localized == 3**scale * per_cell
    assert group.multiplicity - localized == (3 ** (scale + 1) - 3) // 2
    assert sz.basis_columns(group, m_q).shape[2] == group.multiplicity
    # localization is symmetric across the cells of the scale
    counts = np.bincount(scale_cells(group, scale), minlength=3**scale)
    assert counts.tolist() == [per_cell] * 3**scale


@pytest.mark.parametrize("scale,j", [(scale, j) for j in range(2, 8) for scale in range(j)])
def test_five_series_localized_dimensions(scale, j):
    m_q = min(j + 1, 7)
    group = sz._canonical_group("five", j, m_q)
    # the tree: R5(j), three columns, at the root and one column K5(j - k) in
    # each cell of every depth k = 1 .. j - 2, deepest first
    depth, rank = sz.column_cells(group)
    assert np.all(np.diff(depth) <= 0) and depth[-1] == 0
    assert np.bincount(depth).tolist() == [3] + [3**k for k in range(1, j - 1)]
    assert rank.tolist() == [r for k in range(j - 2, 0, -1) for r in range(3**k)] + [0, 0, 0]
    # the columns at depths >= N are localized: all at N = 0, and otherwise
    # (3^(j-1-N) - 1) / 2 in each N-cell, leaving (3^N + 3) / 2 of them
    localized = sz.localized_columns(group, scale)
    assert localized == np.sum(depth >= scale)
    if scale == 0:
        assert localized == group.multiplicity
        return
    per_cell = (3 ** (j - 1 - scale) - 1) // 2
    assert group.multiplicity - localized == (3**scale + 3) // 2
    assert localized == 3**scale * per_cell
    counts = np.bincount(scale_cells(group, scale), minlength=3**scale)
    assert counts.tolist() == [per_cell] * 3**scale


def test_localized_vectors_vanish_outside():
    group = sz._canonical_group("six", 3, 4)
    localized = sz.localized_columns(group, 1)
    assert localized > 0
    outside = _outside_values(sz.basis_columns(group, 4), group, 4)
    assert np.all(outside[:localized] < 1e-10)


def test_localized_basis_orthonormal_and_span_preserving():
    group = sz._canonical_group("six", 3, 4)
    raw = eigenspace_vectors(group, 4)[0]
    vectors = sz.basis_columns(group, 4)
    assert vectors.shape[2] == group.multiplicity
    assert sz.orthonormality_check(vectors, 4) < 1e-10
    assert principal_angle_gap(raw, vectors[0], 4) < 1e-8


def test_distinct_cell_columns_orthogonal():
    group = sz._canonical_group("six", 3, 4)
    vectors = sz.basis_columns(group, 4)[0]
    g = top.interior_weight(4) * vectors.T @ vectors
    cell = scale_cells(group, 1)  # localized column k lies in the 1-cell of rank cell[k]
    for a in range(len(cell)):
        for b in range(a + 1, len(cell)):
            if cell[a] != cell[b]:
                assert abs(g[a, b]) < 1e-12


def test_split_column_count_check():
    # a group claiming the wrong multiplicity is refused by the count of its
    # cell tree's columns
    group = dataclasses.replace(sz._canonical_group("six", 4, 5), multiplicity=40)
    with pytest.raises(AssertionError):
        sz.localized_columns(group, 2)


@pytest.mark.parametrize("scale", [None, 0, 1, 2])
def test_birth_group_slices_are_the_bases_of_groups_of_one(scale):
    # stacking changes only the order of sums: every slice of a group's
    # columns and block is the one built for its word alone
    m_q = 6
    f = HarmonicFunction([1.2, 1.5, 1.9])
    for group in dec.enumerate_spectrum(5):
        vectors = sz.basis_columns(group, m_q)
        op = sz.compressed_operator(f, [group], m_q, scale)
        (blocks,) = op.blocks
        assert (blocks.eigenspaces, blocks.dimension) == (len(group), vectors.shape[2])
        assert op.localized == len(group) * sz.localized_columns(group, scale)
        for g in range(len(group)):
            alone = sz.basis_columns(group[g:g + 1], m_q)
            couplings = sz.compressed_operator(f, [group[g:g + 1]], m_q, scale).blocks[0].couplings
            pairs = [(vectors[g], alone[0])]
            pairs += [(rows[g], one[0]) for rows, one in zip(blocks.couplings, couplings)]
            for stacked, single in pairs:
                assert np.max(np.abs(stacked - single), initial=0.0) <= 1e-13, \
                    (group.series, group.birth, g)


def test_localization_scale_not_below_birth_is_unsplit():
    # a scale N >= birth has no N-cells to copy into: the remainder is the
    # whole eigenspace, as a cutoff run expects for its births <= N
    group = sz._canonical_group("six", 2, 4)
    assert sz.localized_columns(group, 2) == 0
    # below the birth it localizes: at scale 0 the one 0-cell holds every column
    assert sz.localized_columns(group, 0) == group.multiplicity


def test_cross_eigenspace_orthogonality():
    m_q = 4
    topo = top.level_topology(m_q)
    w = top.interior_weight(m_q)
    d1 = sz._canonical_group("five", 2, m_q)
    d2 = sz._canonical_group("six", 2, m_q)
    b1 = sz.basis_columns(d1, m_q)[0]
    b2 = sz.basis_columns(d2, m_q)[0]
    cross = w * b1.T @ b2
    assert np.max(np.abs(cross)) < 1e-9


def test_basis_export(tmp_path):
    group = sz._canonical_group("six", 2, 3)
    argv = ["basis", "--series", "six", "--j", "2", "--N", "1", "--m-q", "3"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / "basis.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "vertex_id,column,value,tag"
    n_int = len(top.level_topology(3).interior_indices)
    assert len(lines) == 2 + group.multiplicity * n_int


# Reference oracle: the numerical search that the cell tree replaced.  The
# localized subspace of a cell is the nullspace of the eigenspace restricted
# to the interior vertices outside the cell, found from the small Gram matrix
# of the rows inside the cell (eigenvalue 1 there means zero outside).
SV_THRESHOLD = 1e-8


def _searched_localization(raw, m_q, scale):
    """{cell rank: plain-coordinate columns vanishing outside the closed cell}."""
    topo = top.level_topology(m_q)
    w = top.interior_weight(m_q)
    basis = np.linalg.qr(np.sqrt(w) * raw)[0]
    row_of = dict(zip(topo.interior_indices.tolist(), range(len(topo.interior_indices))))
    cell_rows = {}
    # every level-m_q cell lies in the scale-cell whose word is a prefix of
    # its own, whose rank in lexicographic order is rank // 3^(m_q - scale);
    # interior corners join its rows
    for rank, corners in enumerate(topo.cell_vertices.tolist()):
        rows = cell_rows.setdefault(rank // 3 ** (m_q - scale), set())
        rows.update(row_of[i] for i in corners if i in row_of)
    cell_rows = {cell: sorted(rows) for cell, rows in cell_rows.items()}
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
                yield sz._canonical_group(series, j, j + 1), j + 1, scale
    for group in dec.enumerate_spectrum(5):
        if group.series != "two":
            for g in range(len(group)):
                for scale in range(group.birth):
                    yield group[g:g + 1], 6, scale


def test_transplants_match_searched_localization():
    for group, m_q, scale in _oracle_grid():
        case = (group.series, group.birth, group.signs.tolist(), m_q, scale)
        raw = eigenspace_vectors(group, m_q)[0]
        vectors = sz.basis_columns(group, m_q)[0]
        localized = sz.localized_columns(group, scale)
        found = _searched_localization(raw, m_q, scale)
        built = {}
        for c, cell in enumerate(scale_cells(group, scale).tolist()):
            built.setdefault(cell, []).append(c)
        assert {cell: len(cols) for cell, cols in built.items()} == {
            cell: vecs.shape[1] for cell, vecs in found.items()
        }, case
        for cell, cols in built.items():
            gap = principal_angle_gap(vectors[:, cols], found[cell], m_q)
            assert gap < 1e-10, (case, cell, gap)
        topo = top.level_topology(m_q)
        full = np.zeros((topo.n_vertices, localized))
        full[topo.interior_indices] = vectors[:, :localized]
        # eigen_residual column by column, vectorized over the columns
        r = lap.apply_neg_laplacian(m_q, full) - group.gamma(m_q)[0] * full[topo.interior_indices]
        residual = np.max(np.abs(r), axis=0) / np.max(np.abs(full), axis=0)
        assert np.all(residual <= 1e-9), (case, float(np.max(residual)))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cutoff_logdet_matches_dense_eigenspaces(m):
    # an oracle that does not share the operator's block structure: each
    # eigenspace up to the cutoff from the dense solve, orthonormalized in the
    # quadrature inner product by a Cholesky factor, with f compressed onto it
    ((_, _, m_q),) = sz.sweep_plan("cutoff", [m], 1)
    topo = top.level_topology(m_q)
    w = top.quadrature(m_q)[topo.interior_indices]
    for f in (HarmonicFunction([1.0, 1.5, 2.0]), SimpleCellFunction([1.0, 2.0, 3.0])):
        wf = w * f.sample(topo)[topo.interior_indices]
        total = 0.0
        for group in dec.enumerate_spectrum(m):
            for g in range(len(group)):
                v = _dense_eigenspace(group[g:g + 1], m_q)
                q = np.linalg.solve(np.linalg.cholesky(v.T @ (w[:, None] * v)), v.T).T
                sign, logdet = np.linalg.slogdet(q.T @ (wf[:, None] * q))
                assert sign == 1.0
                total += logdet
        ((_, op),) = sz.operators(f, "cutoff", [m], 1)
        assert op.level == m_q
        assert abs(sz.log_det(op) - total) <= 1e-10 * abs(total), (m, f.label())


# (series, j, N, m_q) for the split oracle: N = 0, N = birth - 1 (for the
# 6-series the unsplit case birth - N = 1), and the scales in between
SPLIT_GRID = [
    ("six", 2, 0, 4), ("six", 2, 1, 4), ("six", 3, 1, 4), ("six", 3, 2, 5), ("six", 4, 1, 6),
    ("six", 4, 2, 6), ("six", 4, 3, 5), ("six", 5, 2, 6), ("six", 5, 3, 7), ("six", 6, 1, 7),
    ("six", 6, 4, 7), ("six", 7, 4, 7),
    ("five", 2, 0, 3), ("five", 2, 1, 3), ("five", 3, 1, 4), ("five", 3, 2, 4), ("five", 4, 1, 5),
    ("five", 4, 2, 6), ("five", 5, 3, 6), ("five", 6, 2, 7), ("five", 6, 4, 7),
    *[("five", 7, scale, 7) for scale in range(1, 7)],
]


@pytest.mark.parametrize("series,j,scale,m_q", SPLIT_GRID)
def test_split_matches_complete_qr_complement(series, j, scale, m_q):
    group = sz._canonical_group(series, j, m_q)
    vectors = sz.basis_columns(group, m_q)[0]
    n_loc = sz.localized_columns(group, scale)
    assert vectors.shape[1] == group.multiplicity
    if scale:
        expected = (3 ** (scale + 1) - 3) // 2 if series == "six" else (3**scale + 3) // 2
        assert group.multiplicity - n_loc == expected
    else:
        assert n_loc == group.multiplicity
    assert sz.orthonormality_check(vectors, m_q) <= 1e-12
    oracle = complement_by_qr(eigenspace_vectors(group, m_q)[0], vectors[:, :n_loc], m_q)
    remainder = vectors[:, n_loc:]
    assert oracle.shape == remainder.shape
    if oracle.shape[1]:
        assert principal_angle_gap(remainder, oracle, m_q) <= 1e-12
    # every compressed block against the dense w V^T diag(f) V
    topo = top.level_topology(m_q)
    for f in (HarmonicFunction([1.0, 1.5, 2.0]), SimpleCellFunction([1.0, 2.0, 3.0])):
        fvals = f.sample(topo)[topo.interior_indices]
        dense = top.interior_weight(m_q) * (vectors.T * fvals) @ vectors
        block = sz.dense_blocks(sz.compressed_operator(f, [group], m_q, scale).blocks[0])
        assert np.max(np.abs(block - dense)) <= 1e-12 * np.max(np.abs(dense)), f.label()


def test_stacked_five_series_group_matches_dense_oracle():
    # the four eigenspaces of the 5-series born at 4 in the level-6
    # spectrum, built and assembled as one stack: every slice spans the
    # oracle's eigenspace (the dense birth space, extended), and its block is
    # w V^T diag(f) V of its columns, with the eigenvalues of f compressed
    # onto the oracle's basis
    m_q, scale = 6, 2
    group = next(g for g in dec.enumerate_spectrum(6) if (g.series, g.birth) == ("five", 4))
    assert len(group) == 4
    basis = sz.basis_columns(group, m_q)
    topo = top.level_topology(m_q)
    f = SimpleCellFunction([2.689, 2.516, 1.841])
    fvals = f.sample(topo)[topo.interior_indices]
    blocks = sz.dense_blocks(sz.compressed_operator(f, [group], m_q, scale).blocks[0])
    w = top.interior_weight(m_q)
    assert sz.orthonormality_check(basis, m_q) <= 1e-12
    for g, (vectors, oracle, block) in enumerate(zip(basis, eigenspace_vectors(group, m_q),
                                                     blocks)):
        assert principal_angle_gap(vectors, oracle, m_q) <= 1e-12, g
        dense = w * (vectors.T * fvals) @ vectors
        assert np.max(np.abs(block - dense)) <= 1e-12 * np.max(np.abs(dense)), g
        sigma = np.linalg.eigvalsh(w * (oracle.T * fvals) @ oracle)
        assert np.max(np.abs(np.linalg.eigvalsh(block) - sigma)) <= 1e-12 * np.max(sigma), g


def _canonical_remainder(group, m_q, scale):
    """Ext(G^-1 E) R^-T, with G = (6 I + L_{j-1}) / 4, E the unit vectors of
    the interior vertices of V_scale and R R^T = E^T G^-1 E, extended to m_q
    and divided by their quadrature norms: the complement of the copies of
    E6(j - scale) in the scale-cells, by a dense solve."""
    j = group.birth
    parent, coarse = top.level_topology(j - 1), top.level_topology(scale)
    gram = (6.0 * np.eye(top.interior_count(j - 1)) + dirichlet_laplacian(j - 1)) / 4.0
    keys = coarse.keys[coarse.interior_indices] << (j - 1 - scale)
    select = np.searchsorted(parent.interior_indices, index_of(parent, keys))
    solved = np.linalg.solve(gram, np.eye(len(gram))[:, select])
    coeffs = np.zeros((parent.n_vertices, len(select)))
    coeffs[parent.interior_indices] = solved @ np.linalg.inv(np.linalg.cholesky(solved[select])).T
    expected = eigenfunctions_at_level(group, m_q, extend_values(coeffs, j, 6.0))[:, 0]
    return expected / np.sqrt(top.interior_weight(m_q) * np.sum(expected**2, axis=0))


@pytest.mark.parametrize("j,scale,m_q", [(3, 1, 4), (4, 1, 5), (4, 2, 6), (5, 3, 6), (7, 4, 7)])
def test_six_series_remainder_is_canonical(j, scale, m_q):
    # the root columns themselves, not only their span, are the canonical
    # scale-1 remainder; the columns at depths below the scale span the
    # canonical scale-N remainder
    group = sz._canonical_group("six", j, m_q)
    vectors = sz.basis_columns(group, m_q)[0]
    depth, _ = sz.column_cells(group)
    assert np.array_equal(np.nonzero(depth == 0)[0], len(depth) - 3 + np.arange(3))
    root, expected = vectors[:, -3:], _canonical_remainder(group, m_q, 1)
    assert np.max(np.abs(root - expected)) <= 1e-12 * np.max(np.abs(expected))
    remainder = vectors[:, sz.localized_columns(group, scale):]
    assert principal_angle_gap(remainder, _canonical_remainder(group, m_q, scale), m_q) <= 1e-12


def test_compressed_operator_holds_no_dense_basis():
    # the n x d basis of six j=7 at m_q=7 is 28.6 MB; the operator holds its
    # tree blocks, far less than one d x d block, and building it may
    # allocate at most a quarter of the basis besides
    f = SimpleCellFunction([2.689, 2.516, 1.841])
    group = sz._canonical_group("six", 7, 7)
    n, d = top.interior_count(7), group.multiplicity
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        op = sz.compressed_operator(f, [group], 7, 4)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    output = sum(rows.nbytes for group in op.blocks for rows in group.couplings)
    assert [(group.eigenspaces, group.dimension) for group in op.blocks] == [(1, d)]
    assert output < d * d * 8 / 16
    assert peak - output < n * d * 8 / 4, (peak, output)


def test_szego_path_peak_below_one_dense_block():
    # with the topology tables built, the six j=7 N=4 operator and its
    # log-det together peak below one 1092 x 1092 float64 array (9.5 MB)
    f = SimpleCellFunction([2.689, 2.516, 1.841])
    group = sz._canonical_group("six", 7, 7)
    for m in range(8):
        top.level_topology(m)
        for scale in range(m + 1):
            top.cell_embedding(m, scale)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sz.log_det(sz.compressed_operator(f, [group], 7, 4))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def _nested(group):
    """(d, d) mask of the column pairs whose cells are nested."""
    depth, rank = sz.column_cells(group)
    deep = np.maximum(depth[:, None], depth)
    shallow = np.minimum(depth[:, None], depth)
    rank_deep = np.where(depth[:, None] >= depth, rank[:, None], rank)
    rank_shallow = np.where(depth[:, None] >= depth, rank, rank[:, None])
    return rank_deep // 3 ** (deep - shallow) == rank_shallow


@pytest.mark.parametrize("series,j,scale,m_q", [
    ("six", 4, 1, 5), ("six", 6, None, 7), ("six", 7, 2, 7), ("five", 5, 2, 6)])
def test_compression_vanishes_outside_nested_cells(series, j, scale, m_q):
    # columns whose cells are not nested have disjoint supports, so the dense
    # V^T diag(w f) V is exactly zero there, and the tree blocks are all of it
    group = sz._canonical_group(series, j, m_q)
    vectors = sz.basis_columns(group, m_q)[0]
    topo = top.level_topology(m_q)
    f = HarmonicFunction([1.2, 1.5, 1.9])
    fvals = f.sample(topo)[topo.interior_indices]
    dense = top.interior_weight(m_q) * (vectors.T * fvals) @ vectors
    nested = _nested(group)
    assert np.all(dense[~nested] == 0.0)
    block = sz.dense_blocks(sz.compressed_operator(f, [group], m_q, scale).blocks[0])[0]
    assert np.max(np.abs(block - dense)) <= 1e-12 * np.max(np.abs(dense))


def _tree_cases():
    for j in range(3, 8):
        for scale in [None, *range(j)]:
            yield "single", ("six", j, scale, min(j + 1, sz.MQ_CAP))
    for j in range(3, 7):
        for scale in (1, 2):
            yield "single", ("five", j, scale, j + 1)
    for m in range(2, 7):
        for scale in (None, 0, 1, 2):
            yield "cutoff", (m, scale)


@pytest.mark.parametrize("mode,case", list(_tree_cases()), ids=str)
def test_tree_log_det_matches_dense_cholesky(mode, case):
    f = HarmonicFunction([1.2, 1.5, 1.9])
    if mode == "single":
        series, j, scale, m_q = case
        op = sz.compressed_operator(f, [sz._canonical_group(series, j, m_q)], m_q, scale)
    else:
        m, scale = case
        ((_, op),) = sz.operators(f, "cutoff", [m], scale)
    dense = 2.0 * np.sum(np.log(np.diagonal(np.linalg.cholesky(dense_matrix(op)))))
    assert abs(sz.log_det(op) - dense) <= 1e-12 * abs(dense)


def test_multilevel_span_is_the_copies_in_the_scale_cells():
    # the columns at depths >= N span the copies of E6(j - N), born N
    # generations earlier with the same sign word, in the N-cells, and for
    # the 5-series the copies of kept(E5(j - N)), the nullspace of the
    # normal derivatives at the corners of V_0
    for series, j, scale, m_q in [("six", 4, 1, 5), ("six", 5, 2, 6), ("six", 6, 1, 7),
                                  ("six", 7, 3, 7), ("five", 4, 1, 5), ("five", 5, 2, 6),
                                  ("five", 6, 1, 7), ("five", 7, 3, 7)]:
        group = sz._canonical_group(series, j, m_q)
        small = eigenspace_vectors(group, m_q - scale, shift=scale)[0]
        if series == "five":
            normal = corner_normal_derivatives(small, m_q - scale)
            small = small @ np.linalg.svd(normal)[2][2:].T
        rows = interior_cell_rows(m_q, scale)
        copies = np.zeros((top.interior_count(m_q), len(rows), small.shape[1]))
        copies[rows, np.arange(len(rows))[:, None]] = small
        copies = copies.reshape(len(copies), -1)
        localized = sz.basis_columns(group, m_q)[0][:, :sz.localized_columns(group, scale)]
        assert localized.shape == copies.shape
        assert principal_angle_gap(localized, copies, m_q) < 1e-12, (series, j, scale)


@pytest.mark.parametrize("series,j", [("six", 5), ("five", 4)])
def test_columns_at_every_depth_vanish_outside_their_cells(series, j):
    # at scale 0 every column is localized, whatever its depth
    group = sz._canonical_group(series, j, j + 1)
    assert sz.localized_columns(group, 0) == group.multiplicity
    depth, _ = sz.column_cells(group)
    assert set(depth.tolist()) == set(range(j - 1))
    assert np.all(_outside_values(sz.basis_columns(group, j + 1), group, j + 1) == 0.0)
