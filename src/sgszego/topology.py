"""Cell and vertex addressing for level-m graph approximations of the Sierpinski gasket.

An m-cell is the image of the gasket under F_w, the composition of the corner
contractions named by a word w of length m over {1, 2, 3}.  Cells are named by
rank, the position of w in lexicographic order; `word_strs` prints a rank as
its word.  A vertex is a (word, corner) pair; pairs that the contractions map
to the same point of the plane are identified, and the canonical id of a
vertex is the lexicographically least (word, corner) pair that names it.

All coordinates are kept as exact integers at scale 2^-(m+1) (x direction) and
sqrt(3) * 2^-(m+1) (y direction), so the level-(m-1) vertex set embeds into
the level-m one by doubling.  The tables of level m are built from those of
level m - 1 by self-similarity: V_m is the union of the three copies
F_i(V_{m-1}), glued at the junctions F_i(q_k) = F_k(q_i).  The cell i u gets
the vertices F_i of those of u, the copy F_1 keeps its ids, and F_2 and F_3
number their vertices after it in the order of V_{m-1}, skipping the
junctions, which keep the ids they have in the earlier copy.  A vertex off
the junctions has all its names in one copy, so that order is the canonical
one.  A level built only on the way to a higher one is dropped once that is
built; `level_topology` keeps the levels that callers ask for.  The gasket is
also invariant under the rotation that maps q_1 to q_2, q_2 to q_3 and q_3 to
q_1; `rotation` tabulates it on V_m.
"""
from __future__ import annotations

import math
import weakref
from functools import lru_cache

import numpy as np

SQRT3 = math.sqrt(3.0)

# Corner anchors q_1, q_2, q_3 scaled by 2 so that every vertex lands on the
# integer lattice described in the module docstring.
_CORNER_KEYS = np.array([(0, 0), (2, 0), (1, 1)], dtype=np.int64)

# every level table still referenced, by level: a level is built from the
# one below if that is alive, and otherwise from a table of its own
_ALIVE = weakref.WeakValueDictionary()


def vertex_count(m):
    return (3 ** (m + 1) + 3) // 2


def interior_count(m):
    return (3 ** (m + 1) - 3) // 2


class LevelTopology:
    """Immutable vertex and cell tables for the level-m graph approximation.

    The vertex of index i has lattice key `keys[i]` and canonical name
    (cell of rank `rank[i]`, corner `corner[i]`); `cell_vertices[r]` holds the
    vertex indices of the corners 1, 2, 3 of the cell of rank r, and
    `interior_indices` lists the vertices off the corners of V_0.  No table
    keeps an interior index: a full vector has one row per vertex.  Built
    from level m - 1, as the module docstring describes: the table some
    caller still holds, or one built for this level alone and dropped after.
    """

    def __init__(self, m):
        if m < 0:
            raise ValueError("level must be >= 0")
        self.m = m
        if m == 0:
            self.keys = _CORNER_KEYS.copy()
            self.rank = np.zeros(3, dtype=np.int64)
            self.corner = np.arange(1, 4, dtype=np.int64)
            self.cell_vertices = np.arange(3, dtype=np.int64).reshape(1, 3)
            boundary = np.arange(3)
        else:
            prev = _ALIVE.get(m - 1) or LevelTopology(m - 1)
            n = prev.n_vertices
            # the ids of q_1, q_2, q_3 in V_{m-1}, and row i of `ids` the ids
            # in V_m of the copy F_{i+1}(V_{m-1}), junctions taken from the
            # earlier copy
            base = np.nonzero(prev.boundary_mask)[0]
            ids = np.empty((3, n), dtype=np.int64)
            fresh = np.ones((3, n), dtype=bool)
            start = 0
            for i in range(3):
                fresh[i, base[:i]] = False
                ids[i, fresh[i]] = start + np.arange(n - i)
                ids[i, base[:i]] = ids[:i, base[i]]  # F_{i+1}(q_{k+1}) = F_{k+1}(q_{i+1})
                start += n - i
            shift = _CORNER_KEYS << (m - 1)
            self.keys = np.concatenate([prev.keys[fresh[i]] + shift[i] for i in range(3)])
            self.rank = np.concatenate([prev.rank[fresh[i]] + i * 3 ** (m - 1) for i in range(3)])
            self.corner = np.concatenate([prev.corner[fresh[i]] for i in range(3)])
            self.cell_vertices = np.concatenate([row[prev.cell_vertices] for row in ids])
            boundary = ids[[0, 1, 2], base]  # F_c(q_c) = q_c
        if len(self.keys) != vertex_count(m):
            raise AssertionError(f"vertex count mismatch at level {m}: {len(self.keys)}")
        top = 1 << (m + 1)
        self.coords = np.column_stack([self.keys[:, 0] / top, self.keys[:, 1] * SQRT3 / top])
        # only the corners q_1, q_2, q_3 of the gasket lie in a single m-cell
        self.boundary_mask = np.zeros(len(self.keys), dtype=bool)
        self.boundary_mask[boundary] = True
        self.interior_indices = np.nonzero(~self.boundary_mask)[0]
        _ALIVE[m] = self

    @property
    def n_vertices(self):
        return len(self.keys)


@lru_cache(maxsize=None)
def level_topology(m):
    return LevelTopology(m)


@lru_cache(maxsize=None)
def rotation(m):
    """(3, vertices of V_m): row s maps the vertex named (w, c) to the one
    named (w + s, c + s), every address digit and the corner shifted by s
    mod 3, the rotation of the gasket by s steps q_1 -> q_2 -> q_3; a
    permutation of order 3 that maps m-cells to m-cells, read off
    `cell_vertices`; cached and read-only."""
    topo = level_topology(m)
    table = np.empty((3, topo.n_vertices), dtype=np.int64)
    for s in range(3):
        # the rank of the cell i u + s is (i + s mod 3) 3^k + the rank of u + s
        ranks = np.zeros(1, dtype=np.int64)
        for k in range(m):
            ranks = ((np.arange(3) + s) % 3 * 3**k)[:, None] + ranks
            ranks = ranks.ravel()
        for c in range(3):
            table[s, topo.cell_vertices[:, c]] = topo.cell_vertices[ranks, (c + s) % 3]
    table.flags.writeable = False  # cached and shared by every caller
    return table


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


def quadrature(m_q):
    """Vertex weights that discretize the self-similar measure on V_{m_q}.

    Each m_q-cell carries mass 3^-m_q split equally over its three corners, so
    the weight of a vertex is (number of containing cells) * 3^-m_q / 3.
    """
    if m_q < 1:
        raise ValueError("quadrature level must be >= 1")
    # a corner of the gasket lies in one m_q-cell, every other vertex in two
    return np.where(level_topology(m_q).boundary_mask, 1, 2) * (3.0 ** (-m_q)) / 3.0


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
