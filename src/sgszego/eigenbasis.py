"""Orthonormal eigenspace bases split into scale-N localized vectors (one
group per N-cell) and a non-localized remainder.

Localized vectors are built from self-similarity: an eigenfunction of the
descriptor with the same series and sign word born N generations earlier,
copied into an N-cell and zero elsewhere, is an eigenfunction whenever its
normal derivatives vanish at the cell corners.  6-series eigenfunctions all
qualify; for the 5-series the kept part is the nullspace of the rank-2 map to
the three boundary normal derivatives.  Copies in distinct cells have disjoint
supports, and the remainder is their complement inside the eigenspace.

Bases are orthonormal in the quadrature inner product by construction, with
no factorization at the sampling level: each birth eigenspace is orthonormal
in plain coordinates (a Cholesky of the known d x d Gram matrix per 6-series
birth space, no factorization for the 2- and 5-series), decimation extension
keeps it orthogonal and scales every norm by one factor, and the quadrature
weight is uniform on interior vertices, so dividing each extended column by
its norm finishes the job.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .decimation import (SERIES_FIVE, SERIES_SIX, SERIES_TWO, corner_normal_derivatives,
                         eigenfunctions_at_level, make_descriptor)
from .topology import (cell_embedding, cell_rank, enumerate_cells, interior_weight,
                       level_topology, word_str)

NONLOCALIZED = "nonlocalized"


@dataclass(frozen=True)
class EigenspaceBasis:
    descriptor: object
    level: int  # sampling level m_q
    vectors: np.ndarray  # (n_interior, d), orthonormal in the quadrature ip
    tags: tuple  # per column: an N-cell word, or NONLOCALIZED
    scale: int  # localization scale N (or None)
    warning: str = ""

    @property
    def dimension(self):
        return self.vectors.shape[1]

    @property
    def localized_count(self):
        return sum(1 for t in self.tags if t != NONLOCALIZED)

    @property
    def nonlocalized_count(self):
        return sum(1 for t in self.tags if t == NONLOCALIZED)

    def localized_count_for_cell(self, cell):
        return sum(1 for t in self.tags if t == cell)


def eigenspace_vectors(desc, m_q):
    """Quadrature-orthonormal basis of the eigenspace of `desc` on the
    interior of V_{m_q}: the birth eigenspace, orthonormal in plain
    coordinates, extended by decimation, each column divided by its norm.

    The division is all the orthonormalization needed, at O(n d) cost.  A new
    vertex takes a linear combination of its cell's corner values that is
    symmetric in the corners, so for eigenfunctions u, v the sum of u v over a
    cell's new vertices is a (sum over its corners of u v) + b (sum over its
    edges pq of u_p v_q + u_q v_p).  Every interior vertex lies in two cells
    and every edge in one, and -Delta u = gamma u turns the edge sum into
    (4 - gamma) times the vertex sum.  So one level of extension multiplies
    the plain Gram matrix, hence the quadrature one, by a scalar.
    """
    vectors = eigenfunctions_at_level(desc, m_q)[level_topology(m_q).interior_indices]
    vectors /= np.sqrt(interior_weight(m_q) * np.einsum("ij,ij->j", vectors, vectors))
    return vectors


def _cell_eigenspace(desc, m_q, scale):
    """Quadrature-orthonormal columns on the interior of V_{m_q - scale}, each
    of which, copied into any scale-cell, is an eigenfunction of `desc` at
    level m_q.  Requires 1 <= scale < birth and a 5- or 6-series descriptor."""
    if desc.series == SERIES_SIX and desc.birth - scale < 2:
        return np.zeros((0, 0))  # no 6-series is born at level 1
    small = make_descriptor(desc.series, desc.birth - scale, desc.signs)
    vectors = eigenspace_vectors(small, m_q - scale)
    if desc.series == SERIES_FIVE:
        # the three normal derivatives have rank 2; keep their nullspace
        normal = corner_normal_derivatives(vectors, m_q - scale)
        vectors = vectors @ np.linalg.svd(normal)[2][2:].T
    return vectors


def _transplant(basis, small, m_q, scale):
    """Copies of `small` in every scale-cell, then the complement of their
    span inside the span of the orthonormal `basis`; returns (vectors, tags)."""
    interior = level_topology(m_q).interior_indices
    small_interior = level_topology(m_q - scale).interior_indices
    rows = np.searchsorted(interior, cell_embedding(m_q, scale)[:, small_interior])
    cells = enumerate_cells(scale)
    p = small.shape[1]
    n_loc = len(cells) * p
    vectors = np.zeros_like(basis)
    # the interior weight shrinks by 3^-scale, so 3^(scale/2) keeps unit length
    copy = 3.0 ** (scale / 2) * small
    weighted = interior_weight(m_q) * copy
    # the coefficients of each copy in `basis`, read off its own cell's rows
    coeffs = np.empty((basis.shape[1], n_loc))
    for r in range(len(cells)):
        vectors[rows[r], r * p:(r + 1) * p] = copy
        coeffs[:, r * p:(r + 1) * p] = basis[rows[r]].T @ weighted
    # a complete QR of the copies' coefficients splits the eigenspace exactly
    vectors[:, n_loc:] = basis @ np.linalg.qr(coeffs, mode="complete")[0][:, n_loc:]
    tags = tuple(c for c in cells for _ in range(p)) + (NONLOCALIZED,) * (basis.shape[1] - n_loc)
    return vectors, tags


def localize_basis(desc, m_q, scale):
    """The eigenspace of `desc` sampled at level m_q, split into per-cell
    localized vectors plus a remainder.

    Localized columns come first, grouped by cell in address order; every
    localized column vanishes outside its cell.  At scale 0 the single 0-cell
    holds every column.  The 2-series and a scale of None or of at least the
    generation of birth localize nothing.
    """
    basis = eigenspace_vectors(desc, m_q)
    vectors, tags, warning = basis, (NONLOCALIZED,) * basis.shape[1], ""
    if scale is not None and scale >= desc.birth:
        warning = "localization scale is not below the generation of birth"
    elif scale == 0 and desc.series != SERIES_TWO:
        tags = ((),) * basis.shape[1]
    elif scale is not None and desc.series != SERIES_TWO:
        small = _cell_eigenspace(desc, m_q, scale)
        if small.shape[1]:
            vectors, tags = _transplant(basis, small, m_q, scale)
    return EigenspaceBasis(descriptor=desc, level=m_q, vectors=vectors, tags=tags, scale=scale,
                           warning=warning)


def gram_matrix(basis):
    w = interior_weight(basis.level)
    return w * basis.vectors.T @ basis.vectors


def orthonormality_check(basis):
    """Max deviation of the quadrature Gram matrix from the identity."""
    g = gram_matrix(basis)
    return float(np.max(np.abs(g - np.eye(g.shape[0]))))


def max_outside_value(basis, column):
    """Largest |value| of the column at vertices outside its tagged cell."""
    tag = basis.tags[column]
    if tag == NONLOCALIZED:
        raise ValueError("column is not localized")
    topo = level_topology(basis.level)
    outside = np.ones(topo.n_vertices, dtype=bool)
    outside[cell_embedding(basis.level, basis.scale)[cell_rank(tag)]] = False
    return float(np.max(np.abs(basis.vectors[outside[topo.interior_indices], column]), initial=0.0))


def export_basis_csv(basis, path, header_lines=()):
    topo = level_topology(basis.level)
    interior = topo.interior_indices
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        wr = csv.writer(fh)
        wr.writerow(["vertex_id", "column", "value", "tag"])
        for c in range(basis.dimension):
            tag = basis.tags[c]
            tag_s = tag if tag == NONLOCALIZED else word_str(tag)
            for row, idx in enumerate(interior):
                wr.writerow([int(idx), c, repr(float(basis.vectors[row, c])), tag_s])
