"""Graph Laplacians with Dirichlet boundary, a dense eigensolver oracle, the
level-to-level extension rule of spectral decimation, and the effective
resistance metric of the gasket graphs.

The resistance metric comes from the Green's matrix of the graph Laplacian
grounded at q_1, built level by level with no linear solve: the new vertices
of each level couple only within their own cell, so the block inverse of the
level-k Laplacian is harmonic extension of the level-(k-1) Green's matrix plus
the inverse of each cell's 3 x 3 midpoint block.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .topology import cell_embedding, interior_count, level_topology


@dataclass(frozen=True)
class LevelGraph:
    """Graph on V_m: two vertices are adjacent iff they share an m-cell."""

    level: int
    topology: object
    edges: np.ndarray  # (E, 2) vertex index pairs

    @property
    def n_vertices(self):
        return self.topology.n_vertices


@lru_cache(maxsize=None)
def level_graph(m):
    topo = level_topology(m)
    cv = topo.cell_vertices
    edges = np.concatenate([cv[:, [0, 1]], cv[:, [0, 2]], cv[:, [1, 2]]])
    return LevelGraph(level=m, topology=topo, edges=edges)


def degrees(g):
    deg = np.zeros(g.n_vertices, dtype=np.int64)
    np.add.at(deg, g.edges.ravel(), 1)
    return deg


@dataclass(frozen=True)
class LaplacianMatrix:
    """Dirichlet graph Laplacian: rows/columns of V_0 deleted.

    The matrix stores Delta itself (diagonal -4, off-diagonal 1); the spectrum
    routines work with -Delta.
    """

    level: int
    matrix: np.ndarray
    interior: np.ndarray  # vertex indices of the rows, in topology order


def assemble_dirichlet_laplacian(g):
    if g.level < 1:
        raise ValueError("need level >= 1 for a Dirichlet Laplacian")
    topo = g.topology
    interior = topo.interior_indices
    pos = -np.ones(topo.n_vertices, dtype=np.int64)
    pos[interior] = np.arange(len(interior))

    n = len(interior)
    mat = np.zeros((n, n))
    np.fill_diagonal(mat, -4.0)
    ia, ib = pos[g.edges[:, 0]], pos[g.edges[:, 1]]
    both = (ia >= 0) & (ib >= 0)
    mat[ia[both], ib[both]] = 1.0
    mat[ib[both], ia[both]] = 1.0
    if n != interior_count(g.level):
        raise AssertionError("interior size mismatch")
    return LaplacianMatrix(level=g.level, matrix=mat, interior=interior)


def dense_dirichlet_spectrum(L):
    """Full eigendecomposition of -Delta_m, eigenvalues ascending,
    eigenvectors orthonormal in plain coordinates."""
    evals, evecs = np.linalg.eigh(-L.matrix)
    return evals, evecs


@lru_cache(maxsize=None)
def cached_dense_spectrum(m):
    L = assemble_dirichlet_laplacian(level_graph(m))
    return dense_dirichlet_spectrum(L)


def apply_neg_laplacian(g, values):
    """(-Delta u)(x) = 4 u(x) - sum of neighbor values, on every vertex.

    `values` is indexed by all vertices of V_m (leading axis); boundary rows
    of the result are not meaningful for the Dirichlet problem.
    """
    values = np.asarray(values, dtype=float)
    out = 4.0 * values.copy()
    a, b = g.edges[:, 0], g.edges[:, 1]
    np.subtract.at(out, a, values[b])
    np.subtract.at(out, b, values[a])
    return out


def eigen_residual(g, values, gamma):
    """Max-norm residual of -Delta u = gamma u over the interior, relative to
    the max of |u|; for values with one column per function, the largest of
    the columns' residuals.  A zero function has residual 0."""
    values = np.asarray(values, dtype=float)
    interior = g.topology.interior_indices
    r = np.max(np.abs(apply_neg_laplacian(g, values) - gamma * values)[interior], axis=0)
    scale = np.atleast_1d(np.max(np.abs(values), axis=0))
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
        self.graph = level_graph(m)
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


def export_matrix_coo(L, path):
    """Coordinate text format (row, col, value) of the Dirichlet Laplacian."""
    rows, cols = np.nonzero(L.matrix)
    with open(path, "w") as fh:
        fh.writelines(f"{i} {j} {float(v)!r}\n" for i, j, v in zip(rows, cols, L.matrix[rows, cols]))
