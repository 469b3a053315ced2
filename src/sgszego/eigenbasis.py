"""Orthonormal eigenspace bases split into scale-N localized vectors (one
group per N-cell) and a non-localized remainder, kept as that split.

Localized vectors are built from self-similarity: an eigenfunction of the
descriptor with the same series and sign word born N generations earlier,
copied into an N-cell and zero elsewhere, is an eigenfunction whenever its
normal derivatives vanish at the cell corners.  6-series eigenfunctions all
qualify; for the 5-series the kept part is the nullspace of the rank-2 map to
the three boundary normal derivatives.  Copies in distinct cells have disjoint
supports.  The remainder, their complement inside the eigenspace, is built
in closed form and needs no factorization of the eigenspace: for the
6-series it is `decimation.six_series_remainder` extended to the sampling
level; for the 5-series it is the other two directions of the small space
copied into every cell and glued where two cells meet, so that their normal
derivatives cancel (`decimation.junction_nullspace`).

Bases are orthonormal in the quadrature inner product by construction, with
no factorization at the sampling level: each birth eigenspace is orthonormal
in plain coordinates (a Cholesky of the known d x d Gram matrix per 6-series
birth space, no factorization for the 2- and 5-series), decimation extension
keeps it orthogonal and scales every norm by one factor, and the quadrature
weight is uniform on interior vertices, so dividing each extended column by
its norm finishes the job.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decimation import (SERIES_SIX, SERIES_TWO, corner_normal_derivatives,
                         eigenfunctions_at_level, junction_nullspace, six_series_remainder)
from .topology import cell_embedding, interior_count, interior_weight, level_topology


@dataclass(frozen=True)
class EigenspaceBasis:
    """The bases of a birth group's G eigenspaces, kept as their split and
    stacked over the group.  The localized columns of eigenspace g are its
    small eigenspace `small[g]` times 3^(scale/2), copied into the interior
    rows `rows[c]` of V_level of the scale-cell of rank c and zero elsewhere,
    so localized column k lies in the cell of rank k // `per_cell`; the
    `remainder[g]` columns follow.  An unsplit basis has no cells, and its
    remainder is the whole basis.  The counts are per eigenspace; `vectors`
    assembles the dense columns."""

    descriptors: tuple  # one birth group: the same series and birth
    level: int  # sampling level m_q
    scale: int  # localization scale N (or None)
    small: np.ndarray  # (G, interior of V_{level - scale}, p), quadrature-orthonormal there
    rows: np.ndarray  # (cells, interior of V_{level - scale}), rows into the interior of V_level
    remainder: np.ndarray  # (G, interior of V_level, r), quadrature-orthonormal

    @property
    def copy_factor(self):
        return _copy_factor(self.scale)

    @property
    def per_cell(self):
        return self.small.shape[2]

    @property
    def localized_count(self):
        return len(self.rows) * self.per_cell

    @property
    def nonlocalized_count(self):
        return self.remainder.shape[2]

    @property
    def dimension(self):
        return self.localized_count + self.nonlocalized_count

    @property
    def vectors(self):
        """The dense (G, n_interior, d) columns, orthonormal in the
        quadrature inner product; assembled on every access."""
        p, n_loc = self.per_cell, self.localized_count
        out = np.zeros(self.remainder.shape[:2] + (self.dimension,))
        for c, rows in enumerate(self.rows):
            out[:, rows, c * p:(c + 1) * p] = self.copy_factor * self.small
        out[:, :, n_loc:] = self.remainder
        return out


def _copy_factor(scale):
    # the interior weight shrinks by 3^-scale, so 3^(scale/2) keeps unit length
    return 3.0 ** (scale / 2)


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


def _cell_rows(m_q, scale):
    """Interior rows of V_{m_q} of the interior vertices of V_{m_q - scale}
    mapped into each scale-cell, one row per cell in address order."""
    interior = level_topology(m_q).interior_indices
    small_interior = level_topology(m_q - scale).interior_indices
    return np.searchsorted(interior, cell_embedding(m_q, scale)[:, small_interior])


def _split(descs, m_q, scale, rows):
    """Stacked (small, remainder) of a birth group for 1 <= scale < birth
    and the 5- or 6-series, or None when the small space has no columns to
    copy: no 6-series is born at level 1, and the 5-series born at level 1
    has no part with vanishing normal derivatives.  The small space of each
    eigenspace has its sign word and is born `scale` generations earlier."""
    series, birth = descs[0].series, descs[0].birth
    if birth - scale < 2:
        return None
    small = eigenspace_vectors(descs, m_q - scale, shift=scale)
    if series == SERIES_SIX:
        remainder = eigenfunctions_at_level(descs, m_q, six_series_remainder(birth, scale))
        return small, _normalized_interior(remainder, m_q)
    # the three normal derivatives have rank 2: keep their nullspace, and glue
    # copies of the other two directions at the interior vertices of V_scale
    normal = corner_normal_derivatives(small, m_q - scale)
    vh = np.linalg.svd(normal)[2]
    glued = vh[:, :2].transpose(0, 2, 1)
    glue = junction_nullspace(normal @ glued, scale).reshape(len(descs), 3**scale, 2, -1)
    remainder = np.zeros((len(descs), interior_count(m_q), glue.shape[3]))
    remainder[:, rows] = _copy_factor(scale) * (small @ glued)[:, None] @ glue
    return small @ vh[:, 2:].transpose(0, 2, 1), remainder


def localize_basis(descs, m_q, scale):
    """The eigenspaces of a birth group `descs` (descriptors of one series
    and birth) sampled at level m_q, each split into per-cell localized
    vectors plus a remainder, stacked over the group.

    Localized columns come first, grouped by cell in address order; every
    localized column vanishes outside its cell.  At scale 0 the single 0-cell
    holds every column.  The 2-series and a scale of None or of at least the
    generation of birth localize nothing.
    """
    descs = tuple(descs)
    series, birth = descs[0].series, descs[0].birth
    if any((desc.series, desc.birth) != (series, birth) for desc in descs):
        raise ValueError("a birth group's descriptors share one series and one birth")
    split = None
    if scale is not None and scale < birth and series != SERIES_TWO:
        rows = _cell_rows(m_q, scale)
        if scale == 0:
            split = eigenspace_vectors(descs, m_q), np.zeros((len(descs), interior_count(m_q), 0))
        else:
            split = _split(descs, m_q, scale, rows)
    if split is None:  # no cells: the remainder is the whole basis
        split = np.zeros((len(descs), 0, 0)), eigenspace_vectors(descs, m_q)
        rows = np.zeros((0, 0), dtype=np.int64)
    small, remainder = split
    basis = EigenspaceBasis(descriptors=descs, level=m_q, scale=scale, small=small, rows=rows,
                            remainder=remainder)
    expected = {desc.multiplicity for desc in descs}
    if expected != {basis.dimension}:
        raise AssertionError(
            f"{basis.localized_count} localized and {basis.nonlocalized_count} remainder columns "
            f"of {series} j={birth} at scale {scale}, expected {expected} in all")
    return basis


def gram_matrix(basis):
    """The (G, d, d) quadrature Gram matrices of the group's bases."""
    vectors = basis.vectors  # assembled on every access
    return interior_weight(basis.level) * vectors.transpose(0, 2, 1) @ vectors


def orthonormality_check(basis):
    """Max deviation of the quadrature Gram matrices from the identity."""
    g = gram_matrix(basis)
    return float(np.max(np.abs(g - np.eye(g.shape[-1]))))


def max_outside_value(basis, column):
    """Largest |value| of a localized column, over the group's eigenspaces,
    at vertices outside its cell."""
    if not 0 <= column < basis.localized_count:
        raise ValueError(f"column {column} is not one of the {basis.localized_count} localized ones")
    topo = level_topology(basis.level)
    outside = np.ones(topo.n_vertices, dtype=bool)
    outside[cell_embedding(basis.level, basis.scale)[column // basis.per_cell]] = False
    return float(np.max(np.abs(basis.vectors[:, outside[topo.interior_indices], column]),
                        initial=0.0))
