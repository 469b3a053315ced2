"""Orthonormal eigenspace bases kept as a cell tree: one array per depth,
copied into every cell of that depth, with the columns at depths >= N the
scale-N localized ones and the rest the non-localized remainder.

Localized vectors are built from self-similarity: an eigenfunction of the
descriptor with the same series and sign word born k generations earlier,
copied into a k-cell and zero elsewhere, is an eigenfunction whenever its
normal derivatives vanish at the cell corners.  Every split eigenspace
follows one rule (`decimation.cell_tree`).  E(j) is the scale-1 remainder
R(j), three columns orthogonal to the copies of kept(E(j - 1)) in the three
1-cells, plus those copies, and kept(E(j - 1)) splits the same way.  So
depth 0 holds R(j) and depth k = 1 .. j - 2 the kept part of R(j - k): all
three columns for the 6-series, whose eigenfunctions all qualify, and the
one glue column K5(j - k) for the 5-series, the direction of R5(j - k)
whose normal derivatives vanish at the corners of V_0.  The 2-series and
E5(1) are the root alone.  Copies in cells that are not nested have
disjoint supports, so a compressed operator couples a cell only to its
ancestors and descendants.

Bases are orthonormal in the quadrature inner product by construction, with
no factorization at the sampling level: each remainder is orthonormal in
plain coordinates (a Cholesky factor of a 3 x 3 or 2 x 2 Gram matrix),
decimation extension keeps it orthogonal and scales every norm by one
factor, and the quadrature weight is uniform on interior vertices, so
dividing each extended column by its norm finishes the job.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decimation import SERIES_TWO, cell_tree, eigenfunctions_at_level
from .topology import (cell_embedding, interior_cell_rows, interior_count, interior_weight,
                       level_topology)


@dataclass(frozen=True)
class EigenspaceBasis:
    """The bases of a birth group's G eigenspaces, kept as a cell tree and
    stacked over the group.  Tree level i has the depth `depths[i]` and the
    array `parts[i]`, (G, interior of V_{level - depth}, c_i), quadrature-
    orthonormal there; each of the 3^depth cells of that depth holds a copy
    of it, times 3^(depth/2), on its interior rows of V_level and zero
    elsewhere.  The levels run deepest first, ending at the root (depth 0),
    and the columns follow them: level by level, cell by cell in rank order,
    then column by column of the part.  A column couples to another only if
    one's cell contains the other's.  The columns at depths >= `scale` are
    the localized ones, which therefore come first; a scale of None, as the
    2-series has, localizes nothing.  The counts are per eigenspace;
    `vectors` assembles the dense columns."""

    descriptors: tuple  # one birth group: the same series and birth
    level: int  # sampling level m_q
    scale: int  # localized depths are those >= scale (None: no localized columns)
    depths: tuple  # of the tree levels, decreasing to 0
    parts: tuple  # per level, (G, interior of V_{level - depth}, c_i)

    @property
    def column_counts(self):
        """Columns per tree level: 3^depth cells of c_i columns each."""
        return [3**k * part.shape[2] for k, part in zip(self.depths, self.parts)]

    @property
    def localized_count(self):
        if self.scale is None:
            return 0
        return sum(n for k, n in zip(self.depths, self.column_counts) if k >= self.scale)

    @property
    def dimension(self):
        return sum(self.column_counts)

    @property
    def nonlocalized_count(self):
        return self.dimension - self.localized_count

    @property
    def column_cells(self):
        """(depth, rank) of the cell of every column, two arrays in column
        order."""
        depth = np.repeat(self.depths, self.column_counts)
        rank = np.concatenate([np.repeat(np.arange(3**k), part.shape[2])
                               for k, part in zip(self.depths, self.parts)])
        return depth, rank

    @property
    def vectors(self):
        """The dense (G, n_interior, d) columns, orthonormal in the
        quadrature inner product; assembled on every access."""
        g, n = len(self.descriptors), interior_count(self.level)
        out = np.zeros((g, n, self.dimension))
        start = 0
        for k, part, count in zip(self.depths, self.parts, self.column_counts):
            cells = np.zeros((g, n, 3**k, part.shape[2]))
            cells[:, interior_cell_rows(self.level, k), np.arange(3**k)[:, None]] = \
                3.0 ** (k / 2) * part[:, None]
            out[:, :, start:start + count] = cells.reshape(g, n, count)
            start += count
        return out


def _normalized(vectors, m_q):
    """Stacked columns on the interior of V_{m_q}, (vertices, G, p), each
    divided by its norm in place, as (G, interior of V_{m_q}, p).

    The division is all the orthonormalization needed, at O(n p) cost.  A new
    vertex takes a linear combination of its cell's corner values that is
    symmetric in the corners, so for eigenfunctions u, v the sum of u v over a
    cell's new vertices is a (sum over its corners of u v) + b (sum over its
    edges pq of u_p v_q + u_q v_p).  Every interior vertex lies in two cells
    and every edge in one, and -Delta u = gamma u turns the edge sum into
    (4 - gamma) times the vertex sum.  So one level of extension multiplies
    the plain Gram matrix, hence the quadrature one, by a scalar.
    """
    vectors /= np.sqrt(interior_weight(m_q) * np.einsum("igj,igj->gj", vectors, vectors))
    return vectors.transpose(1, 0, 2)


def localize_basis(descs, m_q, scale):
    """The eigenspaces of a birth group `descs` (descriptors of one series
    and birth) sampled at level m_q as a cell tree, stacked over the group,
    with the columns at depths >= scale localized.

    Depth k of `decimation.cell_tree` is extended from V_{birth - k} to
    V_{m_q - k} as the eigenspaces of the same sign words born k generations
    earlier, whatever the scale.  The 2-series localizes nothing.
    """
    descs = tuple(descs)
    series, birth = descs[0].series, descs[0].birth
    if any((desc.series, desc.birth) != (series, birth) for desc in descs):
        raise ValueError("a birth group's descriptors share one series and one birth")
    tree = cell_tree(series, birth)[::-1]
    parts = tuple(_normalized(eigenfunctions_at_level(descs, m_q - k, vals, shift=k), m_q - k)
                  for k, vals in tree)
    basis = EigenspaceBasis(descriptors=descs, level=m_q,
                            scale=None if series == SERIES_TWO else scale,
                            depths=tuple(k for k, _ in tree), parts=parts)
    expected = {desc.multiplicity for desc in descs}
    if expected != {basis.dimension}:
        raise AssertionError(
            f"{basis.localized_count} localized and {basis.nonlocalized_count} remainder columns "
            f"of {series} j={birth} at scale {scale}, expected {expected} in all")
    return basis


def orthonormality_check(vectors, level):
    """Max deviation from the identity of the quadrature Gram matrices of the
    dense columns (..., interior of V_level, d), such as `basis.vectors`."""
    gram = interior_weight(level) * np.swapaxes(vectors, -1, -2) @ vectors
    return float(np.max(np.abs(gram - np.eye(gram.shape[-1]))))


def max_outside_value(basis, column):
    """Largest |value| of a localized column, over the group's eigenspaces,
    at vertices outside its cell."""
    if not 0 <= column < basis.localized_count:
        raise ValueError(f"column {column} is not one of the {basis.localized_count} localized ones")
    topo = level_topology(basis.level)
    outside = np.ones(topo.n_vertices, dtype=bool)
    depth, rank = basis.column_cells
    outside[cell_embedding(basis.level, depth[column])[rank[column]]] = False
    return float(np.max(np.abs(basis.vectors[:, outside[topo.interior_indices], column]),
                        initial=0.0))
