"""Cell and vertex addressing for level-m graph approximations of the Sierpinski gasket.

Cells are words over {1, 2, 3}: an m-cell is the image of the gasket under the
composition of the corner contractions named by the word.  A vertex is a
(word, corner) pair; pairs that the contractions map to the same point of the
plane are identified, and the canonical id of a vertex is the
lexicographically least (word, corner) among its representatives.

All coordinates are kept as exact integers at scale 2^-(m+1) (x direction) and
sqrt(3) * 2^-(m+1) (y direction), so the identification is exact and the
level-(m-1) vertex set embeds into the level-m one by doubling.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

SQRT3 = math.sqrt(3.0)

# Corner anchors q_1, q_2, q_3 scaled by 2 so that every vertex lands on the
# integer lattice described in the module docstring.
_CORNER_INT = {1: (0, 0), 2: (2, 0), 3: (1, 1)}


def enumerate_cells(m):
    """All 3^m cell addresses of length m, lexicographically sorted."""
    if m < 0:
        raise ValueError("level must be >= 0")
    return [tuple(w) for w in product((1, 2, 3), repeat=m)]


def vertex_count(m):
    return (3 ** (m + 1) + 3) // 2


def interior_count(m):
    return (3 ** (m + 1) - 3) // 2


def vertex_key(word, corner):
    """Integer lattice coordinates of F_word(q_corner)."""
    m = len(word)
    a, b = _CORNER_INT[corner]
    for t, s in enumerate(word):
        sa, sb = _CORNER_INT[s]
        f = 1 << (m - 1 - t)
        a += sa * f
        b += sb * f
    return (a, b)


def cell_rank(word):
    """Lexicographic rank of a cell address among all cells of its length."""
    r = 0
    for s in word:
        r = 3 * r + (s - 1)
    return r


@dataclass(frozen=True)
class Vertex:
    index: int
    word: tuple
    corner: int
    key: tuple
    x: float
    y: float
    is_boundary: bool


class LevelTopology:
    """Immutable vertex and cell tables for the level-m graph approximation."""

    def __init__(self, m):
        if m < 0:
            raise ValueError("level must be >= 0")
        self.m = m
        self.cells = enumerate_cells(m)

        reps = {}
        for word in self.cells:
            for corner in (1, 2, 3):
                reps.setdefault(vertex_key(word, corner), []).append((word, corner))

        top = 1 << (m + 1)
        boundary_keys = {(0, 0), (top, 0), (top // 2, top // 2)}

        order = sorted(reps, key=lambda k: min(reps[k]))
        self.vertices = []
        self.index_by_key = {}
        for i, key in enumerate(order):
            word, corner = min(reps[key])
            self.vertices.append(
                Vertex(
                    index=i,
                    word=word,
                    corner=corner,
                    key=key,
                    x=key[0] / top,
                    y=key[1] * SQRT3 / top,
                    is_boundary=key in boundary_keys,
                )
            )
            self.index_by_key[key] = i
        self._reps = [reps[v.key] for v in self.vertices]

        n = len(self.vertices)
        if n != vertex_count(m):
            raise AssertionError(f"vertex count mismatch at level {m}: {n}")

        self.coords = np.array([(v.x, v.y) for v in self.vertices])
        self.boundary_mask = np.array([v.is_boundary for v in self.vertices])
        self.interior_indices = np.nonzero(~self.boundary_mask)[0]

        # corner vertex indices of every m-cell, in corner order 1, 2, 3
        self.cell_vertices = np.array(
            [[self.index_by_key[vertex_key(w, c)] for c in (1, 2, 3)] for w in self.cells],
            dtype=np.int64,
        )

    @property
    def n_vertices(self):
        return len(self.vertices)

    def representatives(self, index):
        """All (word, corner) pairs identified with the given vertex."""
        return list(self._reps[index])

    def cells_of_vertex(self, index, scale):
        """The 1 or 2 scale-cells whose closure contains the vertex."""
        if scale > self.m:
            raise ValueError("cell scale exceeds vertex level")
        return sorted({w[:scale] for (w, _) in self._reps[index]})

    def containing_cell_count(self, index):
        return len({w for (w, _) in self._reps[index]})


@lru_cache(maxsize=None)
def level_topology(m):
    return LevelTopology(m)


@lru_cache(maxsize=None)
def cell_embedding(m, scale):
    """Level-m vertex index of F_w(v), one row per scale-cell w in address
    order and one column per vertex v of V_{m-scale} in topology order.

    F_w shifts the lattice key of v by 2^(m-scale) times the key of the corner
    F_w(q_1) at level `scale`, so the table is read off the integer lattice.
    """
    index = level_topology(m).index_by_key
    shift = m - scale
    keys = [v.key for v in level_topology(shift).vertices]
    corners = [vertex_key(w, 1) for w in enumerate_cells(scale)]
    table = np.array([[index[((ca << shift) + a, (cb << shift) + b)] for a, b in keys]
                      for ca, cb in corners], dtype=np.int64)
    table.flags.writeable = False  # cached and shared by every caller
    return table


def parent_index_map(m):
    """Index of each V_{m-1} vertex inside the level-m topology."""
    if m < 1:
        raise ValueError("need m >= 1")
    parent = level_topology(m - 1)
    child = level_topology(m)
    return np.array(
        [child.index_by_key[(2 * a, 2 * b)] for (a, b) in (v.key for v in parent.vertices)],
        dtype=np.int64,
    )


@dataclass(frozen=True)
class QuadratureScheme:
    """Discretization of the self-similar measure on the level-m_q vertices.

    Each m_q-cell carries mass 3^-m_q split equally over its three corners, so
    the weight of a vertex is (number of containing cells) * 3^-m_q / 3.
    """

    level: int
    weights: np.ndarray

    def integrate(self, values):
        return float(self.weights @ np.asarray(values, dtype=float))


def quadrature(m_q):
    if m_q < 1:
        raise ValueError("quadrature level must be >= 1")
    topo = level_topology(m_q)
    counts = np.array([topo.containing_cell_count(i) for i in range(topo.n_vertices)])
    weights = counts * (3.0 ** (-m_q)) / 3.0
    return QuadratureScheme(level=m_q, weights=weights)


def cell_indicator(topo, cell):
    """Per-cell discretization of the indicator of a closed cell.

    The value at a vertex is the fraction of its containing topo-level cells
    that lie inside `cell` (1 strictly inside, 1/2 on the interface), which
    is how the cell-averaged quadrature sees the indicator; the quadrature
    integral is then exactly 3^-len(cell)."""
    scale = len(cell)
    if scale > topo.m:
        raise ValueError("indicator cell finer than the topology level")
    out = np.zeros(topo.n_vertices)
    for i in range(topo.n_vertices):
        words = {w for (w, _) in topo.representatives(i)}
        inside = sum(1 for w in words if w[:scale] == cell)
        out[i] = inside / len(words)
    return out


def interior_weight(m_q):
    """Quadrature weight shared by every interior vertex of V_{m_q}."""
    return 2.0 * 3.0 ** (-(m_q + 1))


def word_str(word):
    return "".join(str(s) for s in word) if word else "-"


def export_vertex_table(topo, path, weights=None, header_lines=()):
    """CSV dump: id, word, corner, x, y, is_boundary, weight."""
    if weights is None:
        weights = quadrature(topo.m).weights if topo.m >= 1 else None
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        wr = csv.writer(fh)
        wr.writerow(["id", "word", "corner", "x", "y", "is_boundary", "weight"])
        for v in topo.vertices:
            wr.writerow(
                [
                    v.index,
                    word_str(v.word),
                    v.corner,
                    repr(v.x),
                    repr(v.y),
                    int(v.is_boundary),
                    repr(float(weights[v.index])) if weights is not None else "",
                ]
            )


def export_cell_table(topo, path, header_lines=()):
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        wr = csv.writer(fh)
        wr.writerow(["rank", "word", "v1", "v2", "v3"])
        for r, word in enumerate(topo.cells):
            i1, i2, i3 = topo.cell_vertices[r]
            wr.writerow([r, word_str(word), i1, i2, i3])
