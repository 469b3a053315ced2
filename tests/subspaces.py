"""Subspace comparison and oracle constructions shared by the tests."""
import numpy as np

from sgszego.laplacian import extend_values
from sgszego.topology import interior_weight, level_topology


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


def complement_by_qr(basis, copies, m_q):
    """The complement of the span of the quadrature-orthonormal `copies`
    inside the span of the quadrature-orthonormal `basis`: `basis` times the
    trailing columns of a complete QR of the copies' coefficients in it."""
    coeffs = interior_weight(m_q) * basis.T @ copies
    return basis @ np.linalg.qr(coeffs, mode="complete")[0][:, copies.shape[1]:]
