"""Orthonormal eigenspace bases kept as a cell tree: one array per depth,
copied into every cell of that depth, with the columns at depths >= N the
scale-N localized ones and the rest the non-localized remainder.

Localized vectors are built from self-similarity: an eigenfunction of the
descriptor with the same series and sign word born k generations earlier,
copied into a k-cell and zero elsewhere, is an eigenfunction whenever its
normal derivatives vanish at the cell corners.  6-series eigenfunctions all
qualify, so a 6-series eigenspace splits at scale 1 again and again: depth k
holds the part of the eigenspace born at j - k that is orthogonal to its
copies in the three 1-cells (`decimation.six_series_remainder`, three
columns), and depth j - 2 the eigenspace born at 2.  For the 5-series the
kept part is the nullspace of the rank-2 map to the three boundary normal
derivatives, and the split is one level deep: the kept parts at depth N and
at the root the other two directions copied into every N-cell and glued where
two cells meet, so that their normal derivatives cancel
(`decimation.junction_nullspace`).  Copies in cells that are not nested have
disjoint supports, so a compressed operator couples a cell only to its
ancestors and descendants.

Bases are orthonormal in the quadrature inner product by construction, with
no factorization at the sampling level: each birth eigenspace and each
scale-1 remainder is orthonormal in plain coordinates (a Cholesky factor of a
known Gram matrix for the 6-series, no factorization for the 2- and
5-series), decimation extension keeps it orthogonal and scales every norm by
one factor, and the quadrature weight is uniform on interior vertices, so
dividing each extended column by its norm finishes the job.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decimation import (SERIES_FIVE, SERIES_SIX, SERIES_TWO, corner_normal_derivatives,
                         eigenfunctions_at_level, junction_nullspace, six_series_remainder)
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
    the localized ones, which therefore come first; an unsplit basis has
    scale None and localizes nothing.  The counts are per eigenspace;
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


def _normalized_interior(full, m_q):
    """The interior rows of stacked columns (vertices of V_{m_q}, G, p), each
    divided by its norm, as (G, interior of V_{m_q}, p)."""
    vectors = full[level_topology(m_q).interior_indices]
    vectors /= np.sqrt(interior_weight(m_q) * np.einsum("igj,igj->gj", vectors, vectors))
    return vectors.transpose(1, 0, 2)


def eigenspace_vectors(descs, m_q, shift=0):
    """Quadrature-orthonormal bases of the eigenspaces of a birth group on
    the interior of V_{m_q}, stacked (G, n, d): the birth eigenspace,
    orthonormal in plain coordinates, extended by decimation, each column
    divided by its norm.  `shift` is that of `eigenfunctions_at_level`.

    The division is all the orthonormalization needed, at O(n d) cost.  A new
    vertex takes a linear combination of its cell's corner values that is
    symmetric in the corners, so for eigenfunctions u, v the sum of u v over a
    cell's new vertices is a (sum over its corners of u v) + b (sum over its
    edges pq of u_p v_q + u_q v_p).  Every interior vertex lies in two cells
    and every edge in one, and -Delta u = gamma u turns the edge sum into
    (4 - gamma) times the vertex sum.  So one level of extension multiplies
    the plain Gram matrix, hence the quadrature one, by a scalar.
    """
    return _normalized_interior(eigenfunctions_at_level(descs, m_q, shift=shift), m_q)


def _six_series_tree(descs, m_q):
    """(depths, parts) of the multilevel basis of a 6-series birth group
    born at j: at each depth k < j - 2 the scale-1 remainder
    `six_series_remainder(j - k)` of the eigenspaces of the same sign words
    born at j - k, and at depth j - 2 those born at 2.  Splitting E6(j) at
    scale 1 again and again gives E6(j) = R(j) + 3 copies of R(j - 1) + ...
    + 3^(j-2) copies of E6(2), three columns in every cell of every depth."""
    j = descs[0].birth
    parts = [eigenspace_vectors(descs, m_q - j + 2, shift=j - 2)]
    for k in range(j - 3, -1, -1):
        rem = eigenfunctions_at_level(descs, m_q - k, six_series_remainder(j - k), shift=k)
        parts.append(_normalized_interior(rem, m_q - k))
    return tuple(range(j - 2, -1, -1)), tuple(parts)


def _five_series_split(descs, m_q, scale):
    """(small, remainder) of a 5-series birth group for 1 <= scale <=
    birth - 2: the small spaces, born `scale` generations earlier with the
    same sign words, kept where their normal derivatives vanish, and their
    complement."""
    small = eigenspace_vectors(descs, m_q - scale, shift=scale)
    # the three normal derivatives have rank 2: keep their nullspace, and glue
    # copies of the other two directions at the interior vertices of V_scale
    normal = corner_normal_derivatives(small, m_q - scale)
    vh = np.linalg.svd(normal)[2]
    glued = vh[:, :2].transpose(0, 2, 1)
    glue = junction_nullspace(normal @ glued, scale).reshape(len(descs), 3**scale, 2, -1)
    remainder = np.zeros((len(descs), interior_count(m_q), glue.shape[3]))
    remainder[:, interior_cell_rows(m_q, scale)] = \
        3.0 ** (scale / 2) * (small @ glued)[:, None] @ glue
    return small @ vh[:, 2:].transpose(0, 2, 1), remainder


def localize_basis(descs, m_q, scale):
    """The eigenspaces of a birth group `descs` (descriptors of one series
    and birth) sampled at level m_q as a cell tree, stacked over the group,
    with the columns at depths >= scale localized.

    A 6-series is split at scale 1 again and again, whatever the scale
    (`_six_series_tree`).  A 5-series split at 1 <= scale <= birth - 2 is a
    tree of two levels: the localized small spaces at depth `scale` and the
    remainder at the root.  Every other basis is the root alone.  A 5-series
    at scale 0 is all localized, in the one 0-cell; the 2-series, and a
    5-series at a scale of None, of birth - 1 (whose small space keeps
    nothing) or of at least the birth, localize nothing.
    """
    descs = tuple(descs)
    series, birth = descs[0].series, descs[0].birth
    if any((desc.series, desc.birth) != (series, birth) for desc in descs):
        raise ValueError("a birth group's descriptors share one series and one birth")
    if series == SERIES_SIX:
        depths, parts = _six_series_tree(descs, m_q)
    elif series == SERIES_FIVE and scale is not None and 1 <= scale <= birth - 2:
        depths, parts = (scale, 0), _five_series_split(descs, m_q, scale)
    else:
        depths, parts = (0,), (eigenspace_vectors(descs, m_q),)
        if series == SERIES_TWO or scale != 0:
            scale = None
    basis = EigenspaceBasis(descriptors=descs, level=m_q, scale=scale, depths=depths,
                            parts=parts)
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
