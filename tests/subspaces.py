"""Subspace comparison, oracle constructions, a sum of multipliers and the
lattice-key vertex lookup shared by the tests."""
from functools import lru_cache

import numpy as np

from sgszego.decimation import (_birth_space, corner_normal_derivatives, eigenfunctions_at_level,
                                junction_nullspace)
from sgszego.eigenbasis import _normalized
from sgszego.laplacian import dirichlet_laplacian, extend_values
from sgszego.topology import cell_embedding, interior_weight, level_topology


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


def scale_cells(basis, scale):
    """The rank of the scale-cell holding each localized column of `basis`:
    a column of the depth-k cell of rank c, k >= scale, lies in the
    scale-cell of rank c // 3^(k - scale)."""
    depth, rank = basis.column_cells
    n = basis.localized_count
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


def six_series_birth_by_qr(j):
    """The 6-series birth space at j by the direct construction: the gamma = 6
    extensions of the interior unit vectors of V_{j-1}, orthonormalized by a
    QR of their interior rows; returned on the interior of V_j."""
    parent, topo = level_topology(j - 1), level_topology(j)
    unit = np.eye(parent.n_vertices)[:, parent.interior_indices]
    return np.linalg.qr(extend_values(unit, j, 6.0)[topo.interior_indices])[0]


def five_series_birth(j):
    """E5(j) as full vectors on V_j by the one-level construction: copies of
    E5(j - 1) in the 1-cells, glued at the three junctions by the 3 x 3q
    `junction_nullspace`, q = dim E5(j - 1); orthonormal in plain
    coordinates."""
    if j == 1:
        return _birth_space("five")
    small = five_series_birth(j - 1)
    normal = corner_normal_derivatives(small[level_topology(j - 1).interior_indices], j - 1)
    copies = np.zeros((level_topology(j).n_vertices, 3, small.shape[1]))
    copies[cell_embedding(j, 1), np.arange(3)[:, None]] = small
    return copies.reshape(len(copies), -1) @ junction_nullspace(normal)


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


def eigenspace_vectors(descs, m_q, shift=0):
    """Quadrature-orthonormal bases of the eigenspaces of a birth group on
    the interior of V_{m_q}, stacked (G, n, d): the dense `birth_space`
    extended by decimation, each column divided by its norm.  `shift` is that
    of `eigenfunctions_at_level`."""
    vals = birth_space(descs[0].series, descs[0].birth - shift)
    return _normalized(eigenfunctions_at_level(descs, m_q, vals, shift=shift), m_q)


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
