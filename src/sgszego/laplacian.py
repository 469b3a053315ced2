"""The Dirichlet graph Laplacian L = -Delta_m of the gasket graphs, read off
the cells of the topology, its dense eigensolver oracle, the level-to-level
extension rule of spectral decimation, and the effective resistance metric.

The resistance metric comes from the Green's matrix of the graph Laplacian
grounded at q_1, built level by level with no linear solve: the new vertices
of each level couple only within their own cell, so the block inverse of the
level-k Laplacian is harmonic extension of the level-(k-1) Green's matrix plus
the inverse of each cell's 3 x 3 midpoint block.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .topology import cell_embedding, level_topology


@lru_cache(maxsize=None)
def _interior_neighbours(m):
    """The four neighbours of each interior vertex of V_m, one row per vertex
    in topology order.

    Every interior vertex lies in exactly two m-cells, and its neighbours are
    the other two corners of each; a stable sort of the cell corners groups
    the two occurrences of every vertex in ascending vertex order, which is
    the order of `interior_indices`.
    """
    topo = level_topology(m)
    cv = topo.cell_vertices.ravel()
    order = np.argsort(cv, kind="stable")
    slots = order[~topo.boundary_mask[cv[order]]].reshape(-1, 2)  # 3 * cell + corner
    cell, corner = np.divmod(slots, 3)
    others = topo.cell_vertices[cell[..., None], (corner[..., None] + [1, 2]) % 3]
    table = others.reshape(-1, 4)
    table.flags.writeable = False  # cached and shared by every caller
    return table


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
    mat[row, np.searchsorted(topo.interior_indices, neighbours[row, slot])] = -1.0
    return mat


@lru_cache(maxsize=None)
def cached_dense_spectrum(m):
    """Full eigendecomposition of L = -Delta_m, eigenvalues ascending,
    eigenvectors orthonormal in plain coordinates: the dense oracle."""
    return np.linalg.eigh(dirichlet_laplacian(m))


def apply_neg_laplacian(m, values):
    """(-Delta u)(x) = 4 u(x) - the sum of the four neighbour values, on the
    interior vertices of V_m in topology order.

    `values` is indexed by all vertices of V_m (leading axis, extra axes
    allowed), so boundary values enter the rows of their neighbours.
    """
    values = np.asarray(values, dtype=float)
    neighbours = _interior_neighbours(m)
    out = values[level_topology(m).interior_indices]
    out *= 4.0
    # one gather per neighbour keeps a single temporary of the output's size
    for k in range(4):
        out -= values[neighbours[:, k]]
    return out


def eigen_residual(m, values, gamma):
    """Max-norm residual of -Delta u = gamma u over the interior of V_m,
    relative to the max of |u|; for values with one column per function, the
    largest of the columns' residuals.  A zero function has residual 0."""
    values = np.asarray(values, dtype=float)
    # in place, so the peak stays at two arrays of the interior's size
    r = apply_neg_laplacian(m, values)
    shifted = values[level_topology(m).interior_indices]
    shifted *= gamma
    r -= shifted
    r = np.max(np.abs(r, out=r), axis=0)
    scale = np.atleast_1d(np.maximum(np.max(values, axis=0), -np.min(values, axis=0)))
    return float(np.max(r / np.where(scale > 0.0, scale, 1.0)))


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
    ((4 - g)(u(p) + u(q)) + 2 u(r)) / ((2 - g)(5 - g)); gamma_k = 0 is
    harmonic extension, (2 (u(p) + u(q)) + u(r)) / 5.  The rule divides by
    zero at gamma_k = 2 and 5; callers that take gamma from outside check it.
    """
    parent_corner, child_corner, child_mid = extension_maps(k)
    out = np.zeros((level_topology(k).n_vertices,) + values.shape[1:])
    out[child_corner.ravel()] = values[parent_corner.ravel()]

    denom = (2.0 - gamma_k) * (5.0 - gamma_k)
    u = values[parent_corner]  # (cells, 3, ...)
    for r, (p, q) in zip((0, 1, 2), ((1, 2), (0, 2), (0, 1))):
        out[child_mid[:, r]] = ((4.0 - gamma_k) * (u[:, p] + u[:, q]) + 2.0 * u[:, r]) / denom
    return out


# inverse of a cell's midpoint block 5I - J of the unit-conductance Laplacian
# (each midpoint has degree 4 and its two neighbouring midpoints in the cell)
_MIDPOINT_BLOCK_INVERSE = (np.eye(3) + 0.5) / 5.0


def green_matrix(m):
    """Green's matrix on V_m of the Laplacian with edge conductance (5/3)^m,
    grounded at q_1 (its row and column are zero).

    G_0 = [[2, 1], [1, 2]] / 3 on (q_2, q_3).  Level k orders V_k as V_{k-1}
    and the new vertices N; with H_k harmonic extension and D_k the
    block-diagonal (5/3)^k (5I - J) coupling of each cell's midpoints,
    G_k = H_k G_{k-1} H_k^T + D_k^{-1} on N, because the Schur complement of
    D_k is the level-(k-1) Laplacian: the renormalization 3/5 of the gasket.
    """
    green = np.zeros((3, 3))
    green[1:, 1:] = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    for k in range(1, m + 1):
        # G H^T, made contiguous for the row gathers of the second extension
        half = np.ascontiguousarray(extend_values(green, k, 0.0).T)
        green = extend_values(half, k, 0.0)
        mid = extension_maps(k)[2]
        green[mid[:, :, None], mid[:, None, :]] += (3.0 / 5.0) ** k * _MIDPOINT_BLOCK_INVERSE
    return green


class ResistanceComputer:
    """Effective resistance on Gamma_m with every edge conductance (5/3)^m.

    The scale makes boundary-to-boundary resistance level independent, so the
    values approximate the resistance metric of the limiting energy form.
    R(x, y) = G_xx + G_yy - 2 G_xy for any grounded Green's matrix G.
    """

    def __init__(self, m):
        self.level = m
        self._green = green_matrix(m)

    def resistance(self, x, y):
        if x == y:
            return 0.0
        g = self._green
        return float(g[x, x] + g[y, y] - 2.0 * g[x, y])

    def resistance_matrix(self):
        d = np.diag(self._green)
        return d[:, None] + d[None, :] - 2.0 * self._green


def holder_seminorm(values, rc, alpha):
    """Empirical Holder seminorm max |f(x)-f(y)| / R(x,y)^alpha over all
    sampled vertex pairs."""
    if alpha <= 0:
        raise ValueError("exponent must be positive")
    values = np.asarray(values, dtype=float)
    R = rc.resistance_matrix()
    diff = np.abs(values[:, None] - values[None, :])
    mask = ~np.eye(len(values), dtype=bool)
    return float(np.max(diff[mask] / R[mask] ** alpha))
