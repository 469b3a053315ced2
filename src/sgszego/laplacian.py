"""Graph Laplacians with Dirichlet boundary, a dense eigensolver oracle, and
the effective resistance metric of the gasket graphs."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .topology import interior_count, level_topology


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
    the max of |u|."""
    interior = g.topology.interior_indices
    r = apply_neg_laplacian(g, values) - gamma * values
    scale = np.max(np.abs(values))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(r[interior])) / scale)


class ResistanceComputer:
    """Effective resistance on Gamma_m with every edge conductance (5/3)^m.

    The scale makes boundary-to-boundary resistance level independent, so the
    values approximate the resistance metric of the limiting energy form.
    """

    def __init__(self, m):
        self.level = m
        g = level_graph(m)
        self.graph = g
        n = g.n_vertices
        c = (5.0 / 3.0) ** m
        lap = np.zeros((n, n))
        for a, b in g.edges:
            lap[a, b] -= c
            lap[b, a] -= c
            lap[a, a] += c
            lap[b, b] += c
        self._pinv = np.linalg.pinv(lap, hermitian=True)

    def resistance(self, x, y):
        if x == y:
            return 0.0
        p = self._pinv
        return float(p[x, x] + p[y, y] - 2.0 * p[x, y])

    def resistance_matrix(self):
        d = np.diag(self._pinv)
        return d[:, None] + d[None, :] - 2.0 * self._pinv


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
    with open(path, "w") as fh:
        n = L.matrix.shape[0]
        for i in range(n):
            for j in range(n):
                v = L.matrix[i, j]
                if v != 0.0:
                    fh.write(f"{i} {j} {float(v)!r}\n")
