"""The Dirichlet graph Laplacian L = -Delta_m of the gasket graphs, read off
the cells of the topology, the level-to-level extension rule of spectral
decimation, and the effective resistance metric.

The resistance metric is answered pair by pair, with no n x n matrix.  The
Green's matrix grounded at q_1 is G_m = sum_k P_k B_k P_k^T: P_k is harmonic
extension from V_k to V_m, B_0 = G_0 and, for k >= 1, B_k is the inverse
(3/5)^k (I + J/2) / 5 of each (k-1)-cell's midpoint block, since the new
vertices of a level couple only within their own cell.  A vertex's harmonic
coordinates on its k-cell come from walking its cell address from level m
down, one fixed 3 x 3 map per address digit.  So R(x, y) = G_xx + G_yy - 2 G_xy
is a sum over levels: the midpoint form of v_x - v_y while x and y share the
(k-1)-cell, of v_x and v_y separately after they split, and the G_0 form of
the difference of their V_0 coordinates.
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


# entries of V_{k-1} values that `extend_values` gathers per corner at a
# time: the corner gathers and midpoints of a slab of cells stay near 64 KB
# each, where gathering every cell at once took two thirds of the output's size
EXTEND_SLAB = 1 << 13


def _vertex_rows(values):
    """A C-contiguous array (vertices, ...) as one opaque item per vertex, so
    that a gather or scatter of vertices copies whole rows, however few
    entries a row holds."""
    return values.reshape(len(values), -1).view(np.dtype((np.void, values[0].nbytes))).ravel()


def extend_values(values, k, gamma_k):
    """Extend values from V_{k-1} to V_k by the eigenvalue-gamma_k rule.

    `values` has leading axis over the V_{k-1} vertices (extra axes allowed).
    New vertex on edge (p, q) of a (k-1)-cell with opposite corner r gets
    ((4 - g)(u(p) + u(q)) + 2 u(r)) / ((2 - g)(5 - g)); gamma_k = 0 is
    harmonic extension, (2 (u(p) + u(q)) + u(r)) / 5.  The rule divides by
    zero at gamma_k = 2 and 5; callers that take gamma from outside check it.

    `gamma_k` is a scalar, or one gamma per slice of axis 1 of `values`
    shaped (vertices, G, ...).  The rule is elementwise, so each slice is
    bit for bit the scalar call with its own gamma.  The (k-1)-cells are
    taken EXTEND_SLAB entries of each corner at a time.
    """
    parent_corner, child_corner, child_mid = extension_maps(k)
    values = np.ascontiguousarray(values, dtype=float)
    out = np.zeros((level_topology(k).n_vertices,) + values.shape[1:])
    if not out.size:
        return out
    source, target = _vertex_rows(values), _vertex_rows(out)
    gamma_k = np.asarray(gamma_k, dtype=float)
    if gamma_k.ndim:  # one gamma per slice of axis 1, broadcast over the axes after it
        gamma_k = gamma_k.reshape(gamma_k.shape + (1,) * (values.ndim - 2))
    denom = (2.0 - gamma_k) * (5.0 - gamma_k)
    step = max(1, EXTEND_SLAB // values[0].size)
    for start in range(0, len(parent_corner), step):
        cells = slice(start, start + step)
        u = [source[parent_corner[cells, c]] for c in range(3)]  # contiguous (cells, ...) each
        for c in range(3):
            target[child_corner[cells, c]] = u[c]
        u = [items.view(float).reshape((-1,) + values.shape[1:]) for items in u]
        for r, (p, q) in zip((0, 1, 2), ((1, 2), (0, 2), (0, 1))):
            # in place, in the order ((4 - g)(u_p + u_q) + 2 u_r) / denom
            mid = u[p] + u[q]
            mid *= 4.0 - gamma_k
            mid += 2.0 * u[r]
            mid /= denom
            target[child_mid[cells, r]] = _vertex_rows(mid)
    return out


def child_corners(corners, midpoints):
    """(3 cells, 3, ...): the children's corner values from the values at
    the cells' corners and at their edges' midpoints, (cells, 3, ...) each,
    midpoint r opposite corner r.  Corner i of child i is the cell's corner
    i, and corner t != i the midpoint of the edge (i, t), opposite corner
    3 - i - t; child i of the cell of rank r has rank 3 r + i."""
    both = np.concatenate([corners, midpoints], axis=1)
    return both[:, [[0, 5, 4], [5, 1, 3], [4, 3, 2]]].reshape((-1,) + corners.shape[1:])


def child_maps(gamma):
    """(..., 3, 3, 3) for gamma of shape (...): [..., i, :, :] is A_i(gamma),
    the map from a cell's corner values to those of its child i by the rule
    of `extend_values`.  Corner i of child i is the cell's corner i, and
    corner t != i the midpoint of the edge (i, t), which takes (4 - g) /
    ((2 - g)(5 - g)) of corners i and t and 2 / ((2 - g)(5 - g)) of the
    opposite corner 3 - i - t.  A_i(0) restricts a harmonic function to
    child i.  The rule divides by zero at gamma = 2 and 5, as that of
    `extend_values` does."""
    gamma = np.asarray(gamma, dtype=float)
    denom = (2.0 - gamma) * (5.0 - gamma)
    return corner_maps(np.ones_like(gamma), (4.0 - gamma) / denom, 2.0 / denom)


def corner_maps(own, near, far):
    """(..., 3, 3, 3), the entries of `child_maps` from their three values:
    `own` where a child's corner is its cell's, `near` from the two ends of
    a midpoint's edge, `far` from the corner opposite it; broadcast
    against each other."""
    own, near, far = np.broadcast_arrays(own, near, far)
    maps = np.zeros(own.shape + (3, 3, 3))
    for i in range(3):
        maps[..., i, i, i] = own
        for t in {0, 1, 2} - {i}:
            maps[..., i, t, i] = maps[..., i, t, t] = near
            maps[..., i, t, 3 - i - t] = far
    return maps


# pairs a resistance query answers at a time: a traced peak of about 270 B
# each, 18 MB a chunk
PAIR_CHUNK = 1 << 16


def _midpoint_energy(v0, v1, v2):
    """v^T M v for v = (v0, v1, v2), M = (I + J/2) / 5 the inverse of a
    cell's midpoint block 5I - J of the unit-conductance Laplacian."""
    total = v0 + v1 + v2
    return (v0 * v0 + v1 * v1 + v2 * v2 + 0.5 * total * total) / 5.0


class ResistanceComputer:
    """Effective resistance on Gamma_m with every edge conductance (5/3)^m.

    The scale makes boundary-to-boundary resistance level independent, so the
    values approximate the resistance metric of the limiting energy form.
    Each query walks the two vertices' cell addresses; see the module
    docstring.
    """

    def __init__(self, m):
        self.level = m
        self._topo = level_topology(m)

    def resistance(self, x, y):
        """R(x, y) for vertex index arrays x and y, broadcast against each
        other; O(m) work per pair, answered PAIR_CHUNK pairs at a time, so the
        work arrays do not grow with the number of pairs."""
        x, y = np.broadcast_arrays(x, y)
        xs, ys = x.ravel(), y.ravel()
        out = np.empty(xs.size)
        for lo in range(0, xs.size, PAIR_CHUNK):
            part = slice(lo, lo + PAIR_CHUNK)
            out[part] = self._pairs(np.stack([xs[part], ys[part]]))
        return out.reshape(x.shape)

    def _pairs(self, ends):
        """R for the (2, pairs) vertex indices `ends`."""
        # each end starts at its canonical (cell, corner) name; c0, c1, c2
        # are its harmonic coordinates on that cell's corners, (2, pairs) each
        rank = self._topo.rank[ends]
        corner = self._topo.corner[ends]
        c0, c1, c2 = ((corner == t).astype(float) for t in (1, 2, 3))
        total = np.zeros(ends.shape[1])
        for k in range(self.level, 0, -1):
            parent = rank // 3  # rank - 3 parent is 8 us a level faster than np.divmod
            rank, digit = parent, rank - 3 * parent
            # rank now names the (k-1)-cells; a vertex of V_(k-1) has v = 0
            # here, so its canonical cell serves even where it lies in two.
            # Corner t != s of child s is the midpoint of the cell's edge
            # (s, t), opposite corner 3 - s - t: midpoint slot r of child s
            # reads coordinate 3 - s - r, and slot s reads 0
            s0, s1, s2 = digit == 0, digit == 1, digit == 2
            v0 = np.where(s1, c2, np.where(s2, c1, 0.0))
            v1 = np.where(s0, c2, np.where(s2, c0, 0.0))
            v2 = np.where(s0, c1, np.where(s1, c0, 0.0))
            own = _midpoint_energy(v0, v1, v2)
            shared = _midpoint_energy(v0[0] - v0[1], v1[0] - v1[1], v2[0] - v2[1])
            total += (3.0 / 5.0) ** k * np.where(rank[0] == rank[1], shared, own[0] + own[1])
            # corner s of child s is the cell's corner s, and harmonic
            # extension gives each midpoint 2/5 of the corners of its edge
            # and 1/5 of the opposite one: the weights (2J - I) / 5
            twice = 2.0 * (v0 + v1 + v2)
            c0 = np.where(s0, c0, 0.0) + (twice - v0) / 5.0
            c1 = np.where(s1, c1, 0.0) + (twice - v1) / 5.0
            c2 = np.where(s2, c2, 0.0) + (twice - v2) / 5.0
        # G_0 on V_0 grounded at q_1 is [[2, 1], [1, 2]] / 3 on (q_2, q_3); on a
        # difference of coordinates, which sums to 0, its form is |d|^2 / 3
        d0, d1, d2 = c0[0] - c0[1], c1[0] - c1[1], c2[0] - c2[1]
        total += (d0 * d0 + d1 * d1 + d2 * d2) / 3.0
        return total
