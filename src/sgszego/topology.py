"""Cell and vertex addressing for level-m graph approximations of the Sierpinski gasket.

An m-cell is the image of the gasket under F_w, the composition of the corner
contractions named by a word w of length m over {1, 2, 3}.  Cells are named by
rank, the position of w in lexicographic order; `word_strs` prints a rank as
its word.  A vertex is a (word, corner) pair; pairs that the contractions map
to the same point of the plane are identified, and the canonical id of a
vertex is the lexicographically least (word, corner) pair that names it.

All coordinates are kept as exact integers at scale 2^-(m+1) (x direction) and
sqrt(3) * 2^-(m+1) (y direction), so the identification is exact and the
level-(m-1) vertex set embeds into the level-m one by doubling.  The vertex
table is built as arrays: the lattice keys of the 3 * 3^m cell corners, listed
at position 3 * rank + corner - 1, are identified by `np.unique` on an integer
code of the key, and each vertex's first occurrence in that list is its
canonical (word, corner).  Lattice keys are used for that alone: every other
table is read off ranks, since F_w maps the vertex named (u, c) to the one
named (wu, c).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

SQRT3 = math.sqrt(3.0)

# Corner anchors q_1, q_2, q_3 scaled by 2 so that every vertex lands on the
# integer lattice described in the module docstring.
_CORNER_KEYS = np.array([(0, 0), (2, 0), (1, 1)], dtype=np.int64)


def vertex_count(m):
    return (3 ** (m + 1) + 3) // 2


def interior_count(m):
    return (3 ** (m + 1) - 3) // 2


def lattice_keys(ranks, m, corners):
    """Integer lattice keys of F_w(q_c), shape (..., 2), for the m-cells w of
    the given ranks and the corners c, broadcast against each other."""
    ranks = np.asarray(ranks, dtype=np.int64)
    keys = np.zeros(ranks.shape + (2,), dtype=np.int64)
    for t in range(m):
        # digit t of the address, most significant first, scaled by 2^(m-1-t)
        keys += _CORNER_KEYS[ranks // 3 ** (m - 1 - t) % 3] << (m - 1 - t)
    return keys + _CORNER_KEYS[np.asarray(corners) - 1]


class LevelTopology:
    """Immutable vertex and cell tables for the level-m graph approximation.

    The vertex of index i has lattice key `keys[i]` and canonical name
    (cell of rank `rank[i]`, corner `corner[i]`); `cell_vertices[r]` holds the
    vertex indices of the corners 1, 2, 3 of the cell of rank r, and an
    interior vertex i is row `interior_row[i]` of `interior_indices`.
    """

    def __init__(self, m):
        if m < 0:
            raise ValueError("level must be >= 0")
        self.m = m
        corner_keys = lattice_keys(np.arange(3**m)[:, None], m, [1, 2, 3]).reshape(-1, 2)
        # x keys reach 2^(m+1) and y keys 2^m, so the code is injective; a
        # vertex's first occurrence is its least (word, corner)
        _, first, inverse, counts = np.unique(
            (corner_keys[:, 0] << (m + 1)) + corner_keys[:, 1],
            return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(first)
        n = len(order)
        if n != vertex_count(m):
            raise AssertionError(f"vertex count mismatch at level {m}: {n}")
        index = np.empty(n, dtype=np.int64)
        index[order] = np.arange(n)

        self.keys = corner_keys[first[order]]
        self.rank, corner = np.divmod(first[order], 3)
        self.corner = corner + 1
        top = 1 << (m + 1)
        self.coords = np.column_stack([self.keys[:, 0] / top, self.keys[:, 1] * SQRT3 / top])
        # only the corners q_1, q_2, q_3 of the gasket lie in a single m-cell
        self.boundary_mask = counts[order] == 1
        self.interior_indices = np.nonzero(~self.boundary_mask)[0]
        self.interior_row = np.cumsum(~self.boundary_mask) - 1
        self.cell_vertices = index[inverse].reshape(-1, 3)

    @property
    def n_vertices(self):
        return len(self.keys)


@lru_cache(maxsize=None)
def level_topology(m):
    return LevelTopology(m)


@lru_cache(maxsize=None)
def cell_embedding(m, scale):
    """Level-m vertex index of F_w(v), one row per scale-cell w in address
    order and one column per vertex v of V_{m-scale} in topology order.

    F_w maps the vertex named (u, c) to the one named (wu, c), and wu has rank
    rank(w) 3^(m-scale) + rank(u), so the table is read off `cell_vertices`.
    """
    small = level_topology(m - scale)
    ranks = np.arange(3**scale)[:, None] * 3 ** (m - scale) + small.rank
    table = level_topology(m).cell_vertices[ranks, small.corner - 1]
    table.flags.writeable = False  # cached and shared by every caller
    return table


@lru_cache(maxsize=None)
def interior_cell_rows(m, scale):
    """Interior rows of V_m of the interior vertices of V_{m - scale} mapped
    into each scale-cell, one row per cell in rank order."""
    small_interior = level_topology(m - scale).interior_indices
    table = level_topology(m).interior_row[cell_embedding(m, scale)[:, small_interior]]
    table.flags.writeable = False  # cached and shared by every caller
    return table


def _cells_per_vertex(topo):
    # a corner of the gasket lies in one m-cell, every other vertex in two
    return np.where(topo.boundary_mask, 1, 2)


def quadrature(m_q):
    """Vertex weights that discretize the self-similar measure on V_{m_q}.

    Each m_q-cell carries mass 3^-m_q split equally over its three corners, so
    the weight of a vertex is (number of containing cells) * 3^-m_q / 3.
    """
    if m_q < 1:
        raise ValueError("quadrature level must be >= 1")
    return _cells_per_vertex(level_topology(m_q)) * (3.0 ** (-m_q)) / 3.0


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
    return inside / _cells_per_vertex(topo)


def interior_weight(m_q):
    """Quadrature weight shared by every interior vertex of V_{m_q}."""
    return 2.0 * 3.0 ** (-(m_q + 1))


def word_strs(ranks, m):
    """Addresses of the m-cells of the given ranks as digit strings, "-" for
    the empty word at m = 0; the one address formatter of the package."""
    if m == 0:
        return ["-"] * len(ranks)
    digits = np.asarray(ranks)[:, None] // 3 ** np.arange(m - 1, -1, -1) % 3
    chars = (digits + ord("1")).astype(np.uint8)
    return [w.decode() for w in chars.view(f"S{m}").ravel().tolist()]
