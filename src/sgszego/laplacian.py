"""The Dirichlet graph Laplacian L = -Delta_m of the gasket graphs, read off
the cells of the topology, the extension rule of spectral decimation, and
the effective resistance metric.

A function is extended only as its corner table (..., cells, 3),
`child_corners(table, midpoints(table, gamma))` a level at a time, and read
in vertex order at the end (`vertex_values`).

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

from .topology import level_topology


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


def midpoints(corners, gamma):
    """(..., cells, 3): the values at the midpoints of the edges of cells
    with the corner values `corners`, (..., cells, 3), column r opposite
    corner r, ((4 - g)(u_p + u_q) + 2 u_r) / ((2 - g)(5 - g)) in that order,
    with a scalar gamma or one per entry of the leading axes.  At gamma = 0,
    harmonic extension, it is (2 (u_p + u_q) + u_r) / 5 bit for bit, since
    scaling by 2 is exact.  It divides by zero at gamma = 2 and 5."""
    gamma = np.asarray(gamma, dtype=float)
    gamma = gamma.reshape(gamma.shape + (1, 1))
    mid = np.empty(corners.shape)
    for r, (p, q) in enumerate(((1, 2), (0, 2), (0, 1))):
        np.add(corners[..., p], corners[..., q], out=mid[..., r])
    mid *= 4.0 - gamma
    mid += 2.0 * corners
    mid /= (2.0 - gamma) * (5.0 - gamma)
    return mid


def child_corners(corners, midpoints):
    """(..., 3 cells, 3): the children's corner values from the values at
    the cells' corners and at their edges' midpoints, (..., cells, 3) each,
    midpoint r opposite corner r, in the dtype of `corners`.  Corner i of
    child i is the cell's corner i, and corner t != i the midpoint of the
    edge (i, t), opposite corner 3 - i - t; child i of the cell of rank r
    has rank 3 r + i."""
    # a cell's nine entries, child by child, are c0 m2 m1 | m2 c1 m0 | m1 m0 c2
    out = np.empty(corners.shape[:-1] + (9,), dtype=corners.dtype)
    out[..., ::4] = corners
    out[..., 1:3] = midpoints[..., :0:-1]
    out[..., 3::4] = midpoints[..., ::-2]
    out[..., 5:7] = midpoints[..., :2]
    return out.reshape(corners.shape[:-2] + (-1, 3))


def vertex_values(table, topo):
    """(..., vertices of topo): the values of a corner table of level topo.m
    in vertex order, each read at the vertex's canonical (cell, corner)
    name, entry 3 rank + corner - 1 of the flattened cells."""
    return table.reshape(table.shape[:-2] + (-1,))[..., 3 * topo.rank + topo.corner - 1]


def corner_maps(own, near, far):
    """(..., 3, 3, 3): [..., i] maps a cell's corner values to its child i's,
    `own` where a child's corner is its cell's, `near` from the two ends of a
    midpoint's edge, `far` from the corner opposite it; `midpoints` at gamma
    = 0, harmonic restriction, is (1, 0.4, 0.2)."""
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
