"""Subspace comparison, oracle constructions, the tree blocks and dense
forms of the Laplacian and of compressed operators, a sum of multipliers,
the vertex-order extension, the lattice-key vertex tables and lookup, and
the matrix form of the resistance walk, shared by the tests."""
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np

from sgszego.decimation import (_BIRTH_GAMMA, JUNCTION_SV_MIN, LAMBDA_TAIL, SERIES_FIVE,
                                SERIES_SIX, SERIES_TWO, _cholesky_basis, junction_nullspace,
                                make_groups, normal_derivatives, refuse_forbidden, remainder,
                                series_multiplicity)
from sgszego.laplacian import _interior_neighbours
from sgszego.schur import group_matrices
from sgszego.szego import (_SYMMETRIC, NotPositiveDefiniteError, basis_columns, column_cells,
                           localized_columns, tree_corners)
from sgszego.topology import (_CORNER_KEYS, SQRT3, cell_embedding, interior_count,
                              interior_weight, level_topology, vertex_count)


class FunctionSum:
    """Pointwise sum of two functions, e.g. a simple function perturbed by a
    positive harmonic one."""

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def label(self):
        return f"sum({self.first.label()},{self.second.label()})"

    def sample(self, topo):
        return self.first.sample(topo) + self.second.sample(topo)

    def midpoints(self, topo):
        """The sum's values at the midpoints of the topo-level cells' edges,
        read off a sample one level finer (`functions.HarmonicFunction`)."""
        fine = level_topology(topo.m + 1)
        # V_1 in topology order is q1, m12, m13, q2, m23, q3
        return self.sample(fine)[cell_embedding(topo.m + 1, topo.m)[:, [4, 2, 1]]]


# The vertex-order extension that the corner tables of `laplacian.midpoints`
# and `laplacian.child_corners` replaced, kept as their oracle: a level's
# values scattered into V_k through index maps read off `cell_embedding`.

@lru_cache(maxsize=None)
def extension_maps(k):
    """Index arrays for extending a function from V_{k-1} to V_k.

    Returns (parent_corner, child_corner, child_mid): each (3^(k-1), 3); the
    mid column r holds the new vertex opposite corner r+1 of the parent cell.
    """
    # V_1 in topology order is q1, m12, m13, q2, m23, q3 (m_pq the midpoint of
    # edge pq): columns 0, 3, 5 are the corners, 4, 2, 1 the opposite midpoints
    embedding = cell_embedding(k, k - 1)
    return level_topology(k - 1).cell_vertices, embedding[:, [0, 3, 5]], embedding[:, [4, 2, 1]]


def extend_values(values, k, gamma_k):
    """Extend values from V_{k-1} to V_k by the eigenvalue-gamma_k rule.

    `values` has leading axis over the V_{k-1} vertices (extra axes allowed).
    New vertex on edge (p, q) of a (k-1)-cell with opposite corner r gets
    ((4 - g)(u(p) + u(q)) + 2 u(r)) / ((2 - g)(5 - g)), in place in that
    order.  `gamma_k` is a scalar, or one gamma per slice of axis 1 of
    `values` shaped (vertices, G, ...).
    """
    parent_corner, child_corner, child_mid = extension_maps(k)
    values = np.asarray(values, dtype=float)
    out = np.zeros((level_topology(k).n_vertices,) + values.shape[1:])
    gamma_k = np.asarray(gamma_k, dtype=float)
    if gamma_k.ndim:  # one gamma per slice of axis 1, broadcast over the axes after it
        gamma_k = gamma_k.reshape(gamma_k.shape + (1,) * (values.ndim - 2))
    u = [values[parent_corner[:, c]] for c in range(3)]
    for c in range(3):
        out[child_corner[:, c]] = u[c]
    for r, (p, q) in zip((0, 1, 2), ((1, 2), (0, 2), (0, 1))):
        mid = u[p] + u[q]
        mid *= 4.0 - gamma_k
        mid += 2.0 * u[r]
        mid /= (2.0 - gamma_k) * (5.0 - gamma_k)
        out[child_mid[:, r]] = mid
    return out


def extend_eigenfunction(values, k, gamma_k):
    """`extend_values`, refusing the forbidden gammas 2, 5 and 6 in any
    slice as `decimation.refuse_forbidden` does."""
    refuse_forbidden(gamma_k)
    return extend_values(values, k, gamma_k)


# The vertex identification that `topology.LevelTopology` replaced by its
# recursion over the level below, kept as the oracle of its tables: the
# lattice keys of the corners of all 3^m cells from their address digits,
# identified by `np.unique` on an integer code of the key.

def lattice_keys(ranks, m, corners):
    """Integer lattice keys of F_w(q_c), shape (..., 2), for the m-cells w of
    the given ranks and the corners c, broadcast against each other."""
    ranks = np.asarray(ranks, dtype=np.int64)
    keys = np.zeros(ranks.shape + (2,), dtype=np.int64)
    for t in range(m):
        # digit t of the address, most significant first, scaled by 2^(m-1-t)
        keys += _CORNER_KEYS[ranks // 3 ** (m - 1 - t) % 3] << (m - 1 - t)
    return keys + _CORNER_KEYS[np.asarray(corners) - 1]


def unique_key_tables(m):
    """{name: table} of the level-m topology by `np.unique` over the lattice
    keys of the 3 * 3^m cell corners, listed at position 3 * rank + corner - 1:
    a vertex's first occurrence in that list is its canonical (word, corner)."""
    corner_keys = lattice_keys(np.arange(3**m)[:, None], m, [1, 2, 3]).reshape(-1, 2)
    # x keys reach 2^(m+1) and y keys 2^m, so the code is injective
    _, first, inverse, counts = np.unique(
        (corner_keys[:, 0] << (m + 1)) + corner_keys[:, 1],
        return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    n = len(order)
    assert n == vertex_count(m)
    index = np.empty(n, dtype=np.int64)
    index[order] = np.arange(n)
    keys = corner_keys[first[order]]
    rank, corner = np.divmod(first[order], 3)
    top = 1 << (m + 1)
    boundary_mask = counts[order] == 1
    return {"keys": keys, "rank": rank, "corner": corner + 1,
            "coords": np.column_stack([keys[:, 0] / top, keys[:, 1] * SQRT3 / top]),
            "boundary_mask": boundary_mask,
            "interior_indices": np.nonzero(~boundary_mask)[0],
            "cell_vertices": index[inverse].reshape(-1, 3)}


def interior_rows(topo):
    """(vertices of topo): each interior vertex's row in a vector on the
    interior of V_m, in topology order, for the dense oracles; the library
    keeps no such index, as its full vectors have a row per vertex.  The
    entries at the corners of V_0 name no row."""
    return np.cumsum(~topo.boundary_mask) - 1


def index_of(topo, keys):
    """Indices of the vertices of `topo` with the lattice keys of shape
    (..., 2), by a search of the sorted integer codes of `topo.keys`; a
    KeyError for a key that is no vertex of the level."""

    def encode(k):
        # x keys reach 2^(m+1) and y keys 2^m, so the code is injective
        return (k[..., 0] << (topo.m + 1)) + k[..., 1]

    order = np.argsort(encode(topo.keys))
    codes = encode(topo.keys)[order]
    query = encode(np.asarray(keys, dtype=np.int64))
    pos = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
    if not np.array_equal(codes[pos], query):
        raise KeyError(f"lattice key that is not a level-{topo.m} vertex")
    return order[pos]


def on_vertices(m, interior_values):
    """Values given on the interior rows of V_m as values on every vertex,
    zero at the three corners of V_0."""
    topo = level_topology(m)
    full = np.zeros((topo.n_vertices,) + interior_values.shape[1:])
    full[topo.interior_indices] = interior_values
    return full


def principal_angle_gap(a, b, m_q):
    """Largest principal-angle sine between the column spans of a and b."""
    w = interior_weight(m_q)
    qa = np.linalg.qr(np.sqrt(w) * a)[0]
    qb = np.linalg.qr(np.sqrt(w) * b)[0]
    # sine computed from the projection residual, accurate near zero angle
    ra = qb - qa @ (qa.T @ qb)
    rb = qa - qb @ (qb.T @ qa)
    return float(max(np.linalg.norm(ra, 2), np.linalg.norm(rb, 2)))


def words_of(group, words):
    """The birth group of the words of `group` that a slice or an index
    array selects."""
    return replace(group, signs=group.signs[words], gammas=group.gammas[words],
                   lam=group.lam[words], fixation=group.fixation[words])


def scale_cells(group, scale):
    """The rank of the scale-cell holding each localized column of a birth
    group's basis: a column of the depth-k cell of rank c, k >= scale, lies
    in the scale-cell of rank c // 3^(k - scale)."""
    depth, rank = column_cells(group)
    n = localized_columns(group, scale)
    return rank[:n] // 3 ** (depth[:n] - scale)


def reference_laplacian(m):
    """-Delta_m on all of V_m, filled edge by edge: 4 on the diagonal and -1
    for each edge, the three sides of every m-cell.  Its interior block is the
    Dirichlet Laplacian; its boundary rows, applied to functions that vanish
    on V_0, give their normal derivatives."""
    topo = level_topology(m)
    mat = 4.0 * np.eye(topo.n_vertices)
    for a, b, c in topo.cell_vertices.tolist():
        for p, q in ((a, b), (a, c), (b, c)):
            mat[p, q] = mat[q, p] = -1.0
    return mat


# The tree blocks that `szego.operator_eigenvalues` replaced by the matrices
# of the Schur recursion's steps (`schur.group_matrices`), kept as the
# oracle of those and of the log-det: each level's couplings to its own
# cell and its ancestors, from the kernels and the tree's corner values.

@dataclass(frozen=True)
class TreeBlocks:
    """The compressed matrices of a birth group's G eigenspaces over the
    cell tree of its basis, stacked over the group.  Level i has the depth
    `depths[i]` of the basis's level i (deepest first) and `couplings[i]`,
    (G, 3^depth, c_i, c_i + c_{i+1} + ...): each cell's own columns against
    its own columns and then against those of its ancestor at every
    shallower level, in level order.  Entries between columns whose cells
    are not nested are zero and not stored.

    The columns deeper than every level, which come first in column order,
    see f as a constant (`szego.cell_constants`): `constants`, (G, n),
    holds the one each sees, and the matrix is that diagonal on them and
    zero between them and the levels."""

    depths: tuple
    couplings: tuple
    constants: np.ndarray

    @property
    def eigenspaces(self):
        return len(self.constants)

    @property
    def column_counts(self):
        """Columns per tree level: 3^depth cells of c_i columns each."""
        return [3**k * rows.shape[2] for k, rows in zip(self.depths, self.couplings)]

    @property
    def dimension(self):
        return self.constants.shape[1] + sum(self.column_counts)


def tree_couplings(kernels, corners):
    """The `TreeBlocks` of a birth group from its `cell_kernels` divided by
    each word's `gram_factors` rho and its `tree_corners`.  A column u_a is
    its part on V_birth, copied into its cell, extended to V_{m_q} and
    divided by its quadrature norm sqrt(w(m_q) rho), so <f u_a, u_b> =
    sum_C u_a(C)^T K_C u_b(C) / rho over the birth-cells C, u(C) the part's
    values at C's corners.  Every product is one word's own, so the blocks
    of a word do not depend on the other words."""
    g = len(kernels)
    cells = kernels[..., _SYMMETRIC]  # (G, birth-cells, 3, 3)
    rows = [[] for _ in corners]
    for up, (k_up, u_up) in enumerate(corners):
        # (G, 3^k_up, birth-cells in each, 3, c_up): K_C times the ancestor's corner values
        product = np.matmul(cells.reshape((g, 3**k_up, -1, 3, 3)), u_up)
        for i, (k, u) in enumerate(corners[:up + 1]):
            flat = u.reshape(-1, u.shape[-1])
            rows[i].append(np.matmul(flat.T, product.reshape(g, 3**k, len(flat), -1)))
        del product
    for level in rows:
        level[0] = 0.5 * (level[0] + level[0].swapaxes(-1, -2))
    return TreeBlocks(depths=tuple(k for k, _ in corners),
                      couplings=tuple(np.concatenate(level, axis=-1) for level in rows),
                      constants=np.empty((g, 0)))


def tree_blocks(op):
    """One `TreeBlocks` per birth group of a compressed operator: its tree
    levels of depth below `below` by `tree_couplings`, and its constants."""
    blocks = []
    for part in op.groups:
        corners = tuple((k, u) for k, u in tree_corners(part.series, part.birth)
                        if part.below is None or k < part.below)
        blocks.append(TreeBlocks(depths=(), couplings=(), constants=part.constants)
                      if part.kernels is None else
                      replace(tree_couplings(part.kernels, corners), constants=part.constants))
    return tuple(blocks)


def dense_blocks(group):
    """The (G, d, d) matrices of a group's eigenspaces in the column order of
    its basis, filled from its constants and tree blocks."""
    deep = group.constants.shape[1]
    sizes = group.column_counts
    starts = deep + np.cumsum([0] + sizes)
    out = np.zeros((group.eigenspaces, group.dimension, group.dimension))
    out[:, np.arange(deep), np.arange(deep)] = group.constants
    for i, (k, rows) in enumerate(zip(group.depths, group.couplings)):
        own = starts[i] + np.arange(sizes[i]).reshape(3**k, -1)
        col = 0
        for up in range(i, len(sizes)):
            c_up = group.couplings[up].shape[2]
            ancestor = np.arange(3**k) // 3 ** (k - group.depths[up])
            cols = starts[up] + ancestor[:, None] * c_up + np.arange(c_up)
            block = rows[..., col:col + c_up]
            out[:, own[:, :, None], cols[:, None, :]] = block
            out[:, cols[:, :, None], own[:, None, :]] = block.swapaxes(-1, -2)
            col += c_up
    return out


# The dense forms that no command builds, kept as oracles: the Dirichlet
# Laplacian and its full eigensolve, the indicator of a cell, the
# block-diagonal matrix of a compressed operator, and a matrix taken as one.

def dirichlet_laplacian(m):
    """Dense L = -Delta_m on the interior of V_m in topology order: diagonal
    4, -1 between neighbours (boundary rows and columns deleted)."""
    if m < 1:
        raise ValueError("need level >= 1 for a Dirichlet Laplacian")
    topo = level_topology(m)
    neighbours = _interior_neighbours(m)
    n = len(neighbours)
    mat = 4.0 * np.eye(n)
    row, slot = np.nonzero(~topo.boundary_mask[neighbours])
    mat[row, interior_rows(topo)[neighbours[row, slot]]] = -1.0
    return mat


@lru_cache(maxsize=None)
def cached_dense_spectrum(m):
    """Full eigendecomposition of L = -Delta_m, eigenvalues ascending,
    eigenvectors orthonormal in plain coordinates."""
    return np.linalg.eigh(dirichlet_laplacian(m))


def cell_indicator(topo, rank, scale):
    """Per-cell discretization of the indicator of the closed scale-cell of rank `rank`.

    The value at a vertex is the fraction of its containing topo-level cells
    that lie inside the cell (1 strictly inside, 1/2 on the interface), which
    is how the cell-averaged quadrature sees the indicator; the quadrature
    integral is then exactly 3^-scale.  Refuses a rank outside 0..3^scale - 1."""
    if scale > topo.m:
        raise ValueError("indicator cell finer than the topology level")
    if not 0 <= rank < 3**scale:
        raise ValueError(f"rank {rank} names no cell of scale {scale}: 0..{3**scale - 1}")
    size = 3 ** (topo.m - scale)
    start = rank * size
    inside = np.bincount(topo.cell_vertices[start:start + size].ravel(), minlength=topo.n_vertices)
    # a corner of the gasket lies in one topo-level cell, every other vertex in two
    return inside / np.where(topo.boundary_mask, 1, 2)


def dense_matrix(op):
    """The dense block-diagonal matrix of a compressed operator, one block
    per eigenspace in group order, from its `tree_blocks`."""
    full = np.zeros((op.dimension, op.dimension))
    start = 0
    for mat in (mat for group in tree_blocks(op) for mat in dense_blocks(group)):
        full[start:start + len(mat), start:start + len(mat)] = mat
        start += len(mat)
    return full


def one_level(matrix):
    """A symmetric matrix as the `TreeBlocks` of one eigenspace whose cell
    tree has one level of one cell, the form `eliminate` takes."""
    couplings = np.asarray(matrix, dtype=float)[None, None]
    return TreeBlocks(depths=(0,), couplings=(couplings,), constants=np.empty((1, 0)))


def cell_ordered(part):
    """(G, d, d): the matrices of a birth group's eigenspaces from its
    `szego.GroupKernels`, in the column order of `column_cells`, as
    `dense_blocks` fills them: the constants on the diagonal of the columns
    deeper than every kept level, which come first, and then
    `schur.group_matrices` taken from its nested order.  There a column
    comes after the columns of every cell inside its own, cells in rank
    order: sorting on a cell's address digits, each followed by 3 to place
    its own columns after its children's, and stably on the columns,
    gives the nested order."""
    deep = part.constants.shape[1]
    depth, rank = (values[deep:] for values in column_cells(part))
    out = np.zeros((len(part.constants), deep + len(depth), deep + len(depth)))
    out[:, np.arange(deep), np.arange(deep)] = part.constants
    if part.kernels is not None:
        places = np.arange(depth.max() + 1)
        shift = np.maximum(depth[:, None] - 1 - places, 0)
        digits = np.where(places < depth[:, None], rank[:, None] // 3**shift % 3, 3)
        order = deep + np.lexsort(digits.T[::-1])
        out[:, order[:, None], order] = group_matrices(part.series, part.birth, part.below,
                                                       part.kernels)
    return out


# The elimination over the tree blocks that `szego.log_det` replaced by the
# Schur recursion up the cells from the kernels (`schur`), kept as its oracle.

def eliminate(group):
    """Log-determinant of a group's tree blocks and constants, summed over
    its eigenspaces.  The constants, one row for every eigenspace, add G
    times the sum of their logs.  The tree levels are eliminated by
    multifrontal Cholesky over the cell tree, deepest level first.  A cell's
    frontal matrix covers its own columns and then its ancestors'; its pivot
    block is factored, and the Schur complement of the pivot is the update
    to the ancestors' columns.  The solved rows of the cells that share a
    parent are stacked, so one product gives their summed update, and the
    updates they carry are summed into the parent's frontal matrix too.
    Eliminating a cell fills nothing outside its ancestors, so no matrix of
    the eigenspace's size is formed."""
    constants, update = group.constants, None
    try:
        if not np.all(constants > 0.0):  # a diagonal with no Cholesky factor
            raise np.linalg.LinAlgError("a constant is not positive")
        logdet = len(constants) * np.sum(np.log(constants[0]))
        for i, rows in enumerate(group.couplings):
            c = rows.shape[2]
            front = rows if update is None else rows + update[..., :c, :]
            chol = np.linalg.cholesky(front[..., :c])
            logdet += 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)))
            if i + 1 == len(group.depths):
                break
            solved = np.linalg.solve(chol, front[..., c:])
            g, parents, up = len(rows), 3 ** group.depths[i + 1], solved.shape[-1]
            stacked = solved.reshape(g, parents, -1, up)  # (G, parents, siblings * c, up)
            schur = -(stacked.swapaxes(-1, -2) @ stacked)
            if update is not None:
                schur += update[..., c:, c:].reshape(g, parents, -1, up, up).sum(axis=2)
            update = schur
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError from exc
    return float(logdet)


def six_series_birth_by_qr(j):
    """The 6-series birth space at j by the direct construction: the gamma = 6
    extensions of the interior unit vectors of V_{j-1}, orthonormalized by a
    QR of their interior rows; returned on the interior of V_j."""
    parent, topo = level_topology(j - 1), level_topology(j)
    unit = np.eye(parent.n_vertices)[:, parent.interior_indices]
    return np.linalg.qr(extend_values(unit, j, 6.0)[topo.interior_indices])[0]


# The full-vector construction of the 5-series remainders that
# `decimation.five_series_corners` replaced by one on corner tables, kept as
# the oracle of its columns, not only of their span: every level's
# remainder on all of V_i, copied into the 1-cells through `cell_embedding`,
# its normal derivatives and junctions read off `level_topology`.

@lru_cache(maxsize=None)
def _birth_space(series):
    """The level-1 birth space of the 2- or the 5-series as full vectors on
    V_1, orthonormal in plain coordinates: the constant on the three
    midpoints, or their zero-sum vectors; read-only."""
    full = np.zeros((level_topology(1).n_vertices, 2 if series == SERIES_FIVE else 1))
    midpoints = level_topology(1).interior_indices
    if series == SERIES_FIVE:
        full[midpoints] = np.linalg.svd(np.ones((1, 3)))[2][1:].T
    else:
        full[midpoints] = 1.0 / math.sqrt(3.0)
    full.flags.writeable = False  # cached and shared by every caller
    return full


def corner_normal_derivatives(values, level):
    """-Delta at the three corners of V_level (in corner order) of functions
    that vanish there, given by their values on the interior of V_level, one
    column each, rows on the second-last axis of a stack: the negated sum of
    each corner's two neighbours, i.e. the normal derivatives.  Corner c lies
    in the one level-cell c c ... c, and its neighbours are that cell's other
    two corners."""
    topo = level_topology(level)
    cells = topo.cell_vertices[[0, (3**level - 1) // 2, 3**level - 1]]
    neighbours = cells[np.arange(3)[:, None], [[1, 2], [0, 2], [0, 1]]]
    pos = interior_rows(topo)[neighbours]
    return -(values[..., pos[:, 0], :] + values[..., pos[:, 1], :])


def topology_junction_nullspace(normal):
    """`decimation.junction_nullspace` with the 3 x 3q junction matrix read
    off the `cell_vertices` of V_1: the midpoint row of each corner of a
    1-cell that is not a corner of V_0."""
    topo = level_topology(1)
    junction = np.zeros((3, 3, normal.shape[-1]))
    cell, corner = np.nonzero(~topo.boundary_mask[topo.cell_vertices])
    junction[interior_rows(topo)[topo.cell_vertices[cell, corner]], cell] = normal[corner]
    _, sv, vh = np.linalg.svd(junction.reshape(3, -1))
    if sv[-1] < JUNCTION_SV_MIN * sv[0]:
        raise AssertionError("5-series junction conditions are dependent")
    return vh[3:].T


@lru_cache(maxsize=None)
def five_series_remainder(i):
    """R5(i) of `decimation.five_series_corners` as full vectors on V_i, by
    the same recursion on full vectors: the copies of N5(i - 1) in the
    three 1-cells, glued by `topology_junction_nullspace`, split into N5(i)
    and K5(i) by the normal derivatives at the corners of V_0, K5(i) signed
    by its first entry in vertex order of at least half its largest
    magnitude; read-only."""
    if i == 1:
        span = _birth_space(SERIES_FIVE)
    else:
        small = five_series_remainder(i - 1)[:, :2]
        normal = corner_normal_derivatives(small[level_topology(i - 1).interior_indices], i - 1)
        copies = np.zeros((level_topology(i).n_vertices, 3, 2))
        copies[cell_embedding(i, 1), np.arange(3)[:, None]] = small
        span = copies.reshape(len(copies), 6) @ topology_junction_nullspace(normal)
    images = corner_normal_derivatives(span[level_topology(i).interior_indices], i)[:2].T
    values = span @ (images @ np.linalg.inv(np.linalg.cholesky(images.T @ images)).T)
    if i > 1:
        kept = np.cross(images[:, 0], images[:, 1])
        kept = span @ (kept / np.linalg.norm(kept))
        size = np.abs(kept)
        kept *= np.sign(kept[np.argmax(size >= 0.5 * size.max())])
        values = np.column_stack([values, kept])
    values.flags.writeable = False  # cached and shared by every caller
    return values


def joined_five_series_step(below):
    """R5(i) of `decimation.five_series_corners` from R5(i - 1), `below`, by
    the same operations on separate arrays, the span, N5(i) and K5(i),
    joined at the end: the table bit for bit, at about 3.3 times its size."""
    small = below[..., :2]
    null = junction_nullspace(normal_derivatives(small)).reshape(3, 2, 3)
    span = (small.reshape(-1, 2) @ null).reshape(-1, 3, 3)
    images = normal_derivatives(span)[:2].T
    flat = span.reshape(-1, 3)
    kept = np.cross(images[:, 0], images[:, 1])
    kept = flat @ (kept / np.linalg.norm(kept))
    size = np.abs(kept)
    kept *= np.sign(kept[np.argmax(size >= 0.5 * size.max())])
    values = (flat @ _cholesky_basis(images)).reshape(len(span), 3, 2)
    return np.concatenate([values, kept.reshape(len(span), 3, 1)], axis=-1)


def on_level(table, level):
    """The functions of a corner table (3^level, 3, c) as full vectors on
    V_level, each vertex given the value of the last cell that holds it."""
    topo = level_topology(level)
    full = np.zeros((topo.n_vertices, table.shape[-1]))
    full[topo.cell_vertices] = table
    return full


def five_series_birth(j):
    """E5(j) as full vectors on V_j by the one-level construction: copies of
    E5(j - 1) in the 1-cells, glued at the three junctions by the 3 x 3q
    `topology_junction_nullspace`, q = dim E5(j - 1); orthonormal in plain
    coordinates."""
    if j == 1:
        return _birth_space("five")
    small = five_series_birth(j - 1)
    normal = corner_normal_derivatives(small[level_topology(j - 1).interior_indices], j - 1)
    copies = np.zeros((level_topology(j).n_vertices, 3, small.shape[1]))
    copies[cell_embedding(j, 1), np.arange(3)[:, None]] = small
    return copies.reshape(len(copies), -1) @ topology_junction_nullspace(normal)


@lru_cache(maxsize=None)
def birth_space(series, j):
    """The dense birth eigenspace E(j) of a series as full vectors on V_j,
    orthonormal in plain coordinates, built without the cell tree: the level-1
    table, the one-level 5-series gluing, or the QR of the 6-series
    extensions; read-only."""
    if series == "six":
        full = np.zeros((level_topology(j).n_vertices, (3**j - 3) // 2))
        full[level_topology(j).interior_indices] = six_series_birth_by_qr(j)
    else:
        full = five_series_birth(j) if series == "five" else _birth_space(series)
    full.flags.writeable = False
    return full


def eigenspace_vectors(group, m_q, shift=0):
    """Quadrature-orthonormal bases of the eigenspaces of a birth group on
    the interior of V_{m_q}, stacked (G, n, d): the dense `birth_space`
    extended by decimation, each column divided by its norm.  `shift` is that
    of `eigenfunctions_at_level`."""
    vals = birth_space(group.series, group.birth - shift)
    return normalized(eigenfunctions_at_level(group, m_q, vals, shift=shift), m_q)


def six_series_gram(j):
    """(6 I + L) / 4 with L = -Delta_{j-1} the Dirichlet Laplacian on the
    interior of V_{j-1}: the Gram matrix of the gamma = 6 extensions to V_j
    of the interior unit vectors of V_{j-1}.

    The three new vertices of a cell take (u_r - u_p - u_q) / 2, so together
    they contribute (3 sum_corners u_c v_c - sum_edges (u_p v_q + u_q v_p)) / 4,
    and every interior vertex lies in two cells and every edge in one; the
    old vertices add the identity.  Its spectrum lies in (1.5, 3).
    """
    gram = dirichlet_laplacian(j - 1)
    gram[np.diag_indices_from(gram)] += 6.0
    gram /= 4.0
    return gram


def interior_basis(group, m_q):
    """`szego.basis_columns` on the interior rows of V_{m_q}, the layout of
    the dense oracles here; its rows at the corners of V_0 are 0."""
    return basis_columns(group, m_q)[:, level_topology(m_q).interior_indices]


def complement_by_qr(basis, copies, m_q):
    """The complement of the span of the quadrature-orthonormal `copies`
    inside the span of the quadrature-orthonormal `basis`: `basis` times the
    trailing columns of a complete QR of the copies' coefficients in it."""
    coeffs = interior_weight(m_q) * basis.T @ copies
    return basis @ np.linalg.qr(coeffs, mode="complete")[0][:, copies.shape[1]:]


def six_series_remainder_by_solve(j):
    """The scale-1 6-series remainder on V_j by a dense solve: G^-1 E R^-T
    extended by gamma = 6, G = (6 I + L_{j-1}) / 4, E the unit vectors of the
    midpoints of V_1 and R R^T = E^T G^-1 E.  G is eliminated cell by cell:
    with H the map from a 1-cell's corner values to its interior values that
    solves G v = 0 there (a solve on `six_series_gram(j - 1)`), E^T G^-1 E is
    the inverse of the Schur complement S = 5/2 I - sum over the cells of the
    corner block of G H, and G^-1 E R^-T is R on V_1 and H R inside each cell."""
    small = level_topology(j - 2)
    # the coupling of G between a cell's interior and its corners, corners by rows
    coupling = corner_normal_derivatives(np.eye(len(small.interior_indices)), small.m) / 4.0
    harmonic = -np.linalg.solve(six_series_gram(j - 1), coupling.T)
    outer = level_topology(1)
    corners = outer.cell_vertices
    schur = np.zeros((outer.n_vertices, outer.n_vertices))
    np.add.at(schur, (corners[:, :, None], corners[:, None, :]), coupling @ harmonic)
    inner = outer.interior_indices
    schur = 2.5 * np.eye(len(inner)) + schur[np.ix_(inner, inner)]
    values = np.zeros((outer.n_vertices, len(inner)))
    values[inner] = np.linalg.cholesky(np.linalg.inv(schur))
    cells = np.zeros((len(corners), small.n_vertices, len(inner)))
    cells[:, small.boundary_mask] = values[corners]
    cells[:, small.interior_indices] = harmonic @ values[corners]
    coeffs = np.zeros((level_topology(j - 1).n_vertices, len(inner)))
    coeffs[cell_embedding(j - 1, 1)] = cells
    return extend_values(coeffs, j, 6.0)


def one_word(series, birth, signs):
    """The birth group of one sign word."""
    (group,) = make_groups([(series, birth, [signs])])
    return group


# The scalar enumeration that `decimation.make_groups` replaced, kept as the
# oracle of the birth groups: one frozen descriptor per eigenvalue, each
# walking its own gamma sequence in Python, sorted by lam and then grouped by
# (series, birth) in order of first appearance.

def gamma_step(gamma_prev, sign):
    """One decimation step; sign is +1 or -1.

    The -1 branch uses the rationalized form 2 g / (5 + sqrt(25 - 4 g)),
    which avoids catastrophic cancellation as gamma tends to zero.
    """
    disc = 25.0 - 4.0 * gamma_prev
    if disc < 0.0:
        raise ValueError("gamma exceeds 25/4, discriminant negative")
    root = math.sqrt(disc)
    if sign == -1:
        return 2.0 * gamma_prev / (5.0 + root)
    return 0.5 * (5.0 + root)


def _fixation(birth, signs):
    """Level after the last +1 sign (all signs are -1 from there on, given
    the all-(-1) continuation beyond the enumeration level)."""
    last_plus = None
    for k, e in enumerate(signs):
        if e == 1:
            last_plus = birth + 1 + k
    return birth + 1 if last_plus is None else last_plus + 1


@dataclass(frozen=True)
class EigenvalueDescriptor:
    series: str
    birth: int
    signs: tuple  # epsilon_{birth+1} .. epsilon_m
    fixation: int
    gammas: tuple  # gamma_birth .. gamma_m
    lam: float  # renormalized limit (3/2) lim 5^k gamma_k
    multiplicity: int

    @property
    def level(self):
        return self.birth + len(self.signs)

    def gamma_at(self, k):
        """gamma_k for any k >= birth; signs beyond the stored word are -1,
        except the forced +1 step directly after a 6-series birth."""
        if k < self.birth:
            raise ValueError("level precedes generation of birth")
        if k <= self.level:
            return self.gammas[k - self.birth]
        return _continue(self.gammas[-1], k - self.level)


def _continue(gamma, steps):
    """gamma after `steps` decimation steps past the stored sign word."""
    # a gamma of exactly 6 only occurs at a 6-series birth, where the next
    # sign is forced to +1; every other continuation sign is -1
    for _ in range(steps):
        gamma = gamma_step(gamma, 1 if gamma == 6.0 else -1)
    return gamma


def make_descriptor(series, birth, signs):
    """Refuses a birth the series does not have: the 2-series is born only at
    generation 1, the 5-series from 1 on and the 6-series from 2 on."""
    first = {SERIES_TWO: 1, SERIES_FIVE: 1, SERIES_SIX: 2}.get(series)
    if first is None or birth < first or (series == SERIES_TWO and birth > 1):
        raise ValueError(f"series {series!r} has no eigenvalue born at generation {birth}")
    gamma = _BIRTH_GAMMA[series]
    gammas = [gamma]
    for e in signs:
        gamma = gamma_step(gamma, e)
        gammas.append(gamma)
    if series == SERIES_SIX and signs and signs[0] != 1:
        raise ValueError("6-series requires epsilon_{j+1} = +1")
    # the forced +1 after a 6-series birth counts toward fixation even when
    # the stored word is empty (birth at the enumeration level)
    effective_signs = signs if (signs or series != SERIES_SIX) else (1,)
    k = LAMBDA_TAIL + max(LAMBDA_TAIL, birth + len(signs))
    lam = 1.5 * (5.0 ** k) * _continue(gammas[-1], k - birth - len(signs))
    return EigenvalueDescriptor(
        series=series,
        birth=birth,
        signs=tuple(signs),
        fixation=_fixation(birth, effective_signs),
        gammas=tuple(gammas),
        lam=lam,
        multiplicity=series_multiplicity(series, birth),
    )


def scalar_spectrum(m):
    """The level-m descriptors sorted by lam, grouped by (series, birth), each
    group in the order given and the groups in order of first appearance."""
    entries = []
    for signs in product((-1, 1), repeat=m - 1):
        entries.append(make_descriptor(SERIES_TWO, 1, signs))
    for j in range(1, m + 1):
        for signs in product((-1, 1), repeat=m - j):
            entries.append(make_descriptor(SERIES_FIVE, j, signs))
    for j in range(2, m + 1):
        for tail in product((-1, 1), repeat=max(m - j - 1, 0)):
            signs = ((1,) + tail) if j < m else ()
            entries.append(make_descriptor(SERIES_SIX, j, signs))
    entries.sort(key=lambda d: d.lam)
    groups = {}
    for desc in entries:
        groups.setdefault((desc.series, desc.birth), []).append(desc)
    return [tuple(group) for group in groups.values()]


# The construction that `szego.basis_columns` replaced, kept as the oracle of
# its columns (`long_double_basis`, below) and of the dense eigenspaces: every
# level of the cell tree extended vertex by vertex from V_{birth - depth} to
# V_{m_q - depth}, divided by its norm there, and copied into every cell of
# its depth.

@lru_cache(maxsize=None)
def interior_cell_rows(m, scale):
    """Interior rows of V_m of the interior vertices of V_{m - scale} mapped
    into each scale-cell, one row per cell in rank order."""
    small_interior = level_topology(m - scale).interior_indices
    table = interior_rows(level_topology(m))[cell_embedding(m, scale)[:, small_interior]]
    table.flags.writeable = False  # cached and shared by every caller
    return table


def cell_tree(series, birth):
    """(depth, columns on V_{birth - depth}) of the cell tree of the birth
    space of a series as full vectors, root first: the scale-1 remainder
    R(birth) at depth 0 and the kept part of R(birth - k) at each depth
    k = 1 .. birth - 2, all three columns of a 6-series remainder and the one
    column K5 of a 5-series one.  Each depth's columns are copied into every
    cell of that depth; copies in different cells have disjoint supports, so
    the tree is orthonormal in plain coordinates.  The 2-series is the root
    alone.  Each remainder is its `decimation.remainder` table placed on
    V_i (`on_level`), so the tree in the layout of `szego.tree_corners` is
    this one read back at the cells' corners only if the two cells at every
    shared vertex agree."""
    kept = slice(2, None) if series == SERIES_FIVE else slice(None)
    levels = [(k, on_level(remainder(series, birth - k), birth - k))
              for k in range(max(birth - 1, 1))]
    return tuple((k, vals[:, kept] if k else vals) for k, vals in levels)


def eigenfunctions_at_level(group, m_q, vals, shift=0):
    """Eigenspaces of a birth group sampled on the interior of V_{m_q},
    stacked (interior vertices of V_{m_q}, G, columns) over its G words: the
    columns `vals` on V_birth of the birth eigenspace, such as a depth of its
    `cell_tree`, followed by decimation extension with one gamma per word.
    With a shift s it is the eigenspaces of the same sign words born s
    generations earlier, whose gamma at level k is the group's gamma at
    k + s."""
    birth = group.birth - shift
    if m_q < birth:
        raise ValueError("sampling level precedes generation of birth")
    vals = np.broadcast_to(vals[:, None], (len(vals), len(group)) + vals.shape[1:])
    for k in range(birth + 1, m_q + 1):
        vals = extend_eigenfunction(vals, k, group.gamma(k + shift))
    return vals[level_topology(m_q).interior_indices]


def normalized(vectors, m_q):
    """Stacked columns on the interior of V_{m_q}, (vertices, G, p), each
    divided by its quadrature norm, as (G, interior of V_{m_q}, p).
    Decimation extension multiplies the Gram matrix of a set of
    eigenfunctions by a scalar, so an extended orthonormal set needs no
    more."""
    vectors = vectors / np.sqrt(interior_weight(m_q) * np.einsum("igj,igj->gj", vectors, vectors))
    return vectors.transpose(1, 0, 2)


@dataclass(frozen=True)
class EigenspaceBasis:
    """The bases of a birth group's eigenspaces as a cell tree: tree level i
    has the depth `depths[i]` and the part `parts[i]`, (G, interior of
    V_{level - depth}, c_i), quadrature-orthonormal there, and each of the
    3^depth cells of that depth holds a copy of it times 3^(depth/2) on its
    interior rows of V_level, in the column order of `szego.column_cells`."""

    group: object
    level: int
    depths: tuple
    parts: tuple

    @property
    def vectors(self):
        """The dense (G, interior of V_level, d) columns."""
        g, n = len(self.group), interior_count(self.level)
        levels = []
        for k, part in zip(self.depths, self.parts):
            cells = np.zeros((g, n, 3**k, part.shape[2]))
            cells[:, interior_cell_rows(self.level, k), np.arange(3**k)[:, None]] = \
                3.0 ** (k / 2) * part[:, None]
            levels.append(cells.reshape(g, n, -1))
        return np.concatenate(levels, axis=-1)


# The assembly that `szego.compressed_operator` replaced by cell kernels,
# kept as the oracle of its blocks: it gathers f and every part extended to
# the sampling level onto the cells of each pair of tree levels.

def assemble_compressed(f_values_interior, basis):
    """The `TreeBlocks` of a birth group's eigenspaces,
    M[a, b] = sum_x w(x) f(x) u_a(x) u_b(x) over interior vertices, one pair
    of tree levels at a time, from the basis's parts without its dense
    columns.  For a depth-k cell and its ancestor at depth k' <= k, f and the
    ancestor's part are gathered onto the cell's interior rows
    (`interior_cell_rows(m_q - k', k - k')`), so each pair of levels costs
    about c_k c_k' n flops, stacked over the group and the cells."""
    return TreeBlocks(depths=basis.depths, couplings=tuple(
        _level_couplings(f_values_interior, basis, i) for i in range(len(basis.depths))),
        constants=np.empty((len(basis.group), 0)))


def _level_couplings(f, basis, i):
    """Level i's couplings of `assemble_compressed`; the level's copies are
    freed on return, and an ancestor's before the next one is gathered."""
    m_q, g = basis.level, len(basis.group)
    k, part = basis.depths[i], basis.parts[i]
    c, n_k = part.shape[2], part.shape[1]
    # (G, cells, c, n_k): the cell's own columns times f on the cell
    weighted = part.transpose(0, 2, 1)[:, None] * f[interior_cell_rows(m_q, k)][:, None]
    blocks = []
    for k_up, up in zip(basis.depths[i:], basis.parts[i:]):
        span = 3 ** (k - k_up)
        # (G, span, n_k, c'): the ancestor's part on each of its span cells of depth k
        gathered = up[:, interior_cell_rows(m_q - k_up, k - k_up)] if span > 1 else up[:, None]
        block = weighted.reshape(g, -1, span, c, n_k) @ gathered[:, None]
        del gathered
        blocks.append(interior_weight(m_q) * 3.0 ** ((k + k_up) / 2)
                      * block.reshape(g, 3**k, c, -1))
    blocks[0] = 0.5 * (blocks[0] + blocks[0].swapaxes(-1, -2))
    return np.concatenate(blocks, axis=-1)



def _extend_long(values, k, gammas):
    """`extend_values` in long double for (vertices, G, ...)
    values, one gamma per slice of axis 1."""
    parent, corner, mid = extension_maps(k)
    out = np.empty((level_topology(k).n_vertices,) + values.shape[1:], dtype=np.longdouble)
    gamma = np.asarray(gammas, dtype=np.longdouble).reshape((-1,) + (1,) * (values.ndim - 2))
    u = [values[parent[:, c]] for c in range(3)]
    for c in range(3):
        out[corner[:, c]] = u[c]
    for r, (p, q) in zip((0, 1, 2), ((1, 2), (0, 2), (0, 1))):
        out[mid[:, r]] = ((4 - gamma) * (u[p] + u[q]) + 2 * u[r]) / ((2 - gamma) * (5 - gamma))
    return out


def long_double_basis(group, m_q):
    """The `EigenspaceBasis` of a birth group, its cell tree extended and
    normalized in long double, for `assemble_compressed` to
    sum in long double.  At m_q = index + 3 the float64 extension leaves
    values 6e-14 off and compressed entries 2e-13 off (cutoff m=7 at
    m_q=10, six j=5), and rounding this basis to float64 before the sums
    still leaves 1.6e-13; in long double it is within 2e-15 of the
    recursive kernels."""
    tree = cell_tree(group.series, group.birth)[::-1]
    parts = []
    for k, vals in tree:
        values = np.repeat(vals.astype(np.longdouble)[:, None], len(group), axis=1)
        for level in range(group.birth - k + 1, m_q - k + 1):
            values = _extend_long(values, level, group.gamma(level + k))
        values = values[level_topology(m_q - k).interior_indices]
        values /= np.sqrt(interior_weight(m_q - k) * np.sum(values * values, axis=0))
        parts.append(values.transpose(1, 0, 2))
    return EigenspaceBasis(group=group, level=m_q, depths=tuple(k for k, _ in tree),
                           parts=tuple(parts))


# The resistance walk that `laplacian.ResistanceComputer._pairs` replaced by
# one that carries each harmonic coordinate as its own flat array, kept as
# its oracle: the midpoint slots are a gather of fixed 3 x 3 maps applied
# by einsum, and the energies are sums over a last axis of length 3.

# corner t != s of child s of a cell is the midpoint of the cell's edge (s, t),
# which lies opposite corner r = 3 - s - t: _MID[s, r, t] = 1 moves a point's
# coordinate on that child corner to the cell's midpoint slot r
_MID = np.array([[[float(t != s and r == 3 - s - t) for t in range(3)]
                  for r in range(3)] for s in range(3)])


def _midpoint_energy(v):
    """v^T M v over the last axis, M = (I + J/2) / 5 the inverse of a cell's
    midpoint block 5I - J of the unit-conductance Laplacian."""
    return (np.einsum("...i,...i->...", v, v) + 0.5 * v.sum(axis=-1) ** 2) / 5.0


def matrix_walk_resistance(m, x, y):
    """R(x, y) on Gamma_m for equal-length vertex index arrays, by the
    matrix form of the address walk, all pairs at once."""
    topo = level_topology(m)
    ends = np.stack([np.asarray(x), np.asarray(y)])
    rank = topo.rank[ends]
    coords = np.eye(3)[topo.corner[ends] - 1]
    total = np.zeros(ends.shape[1])
    for k in range(m, 0, -1):
        rank, digit = np.divmod(rank, 3)
        v = np.einsum("...ij,...j->...i", _MID[digit], coords)
        total += (3.0 / 5.0) ** k * np.where(
            rank[0] == rank[1], _midpoint_energy(v[0] - v[1]), _midpoint_energy(v).sum(axis=0))
        coords = np.where(digit[..., None] == np.arange(3), coords, 0.0)
        coords += (2.0 * v.sum(axis=-1, keepdims=True) - v) / 5.0
    d = coords[0] - coords[1]
    total += np.einsum("pi,pi->p", d, d) / 3.0
    return total
