"""Orthonormal eigenspace bases split into scale-N localized vectors (one
group per N-cell) and a non-localized remainder.

Localized vectors are built from self-similarity: an eigenfunction of the
descriptor with the same series and sign word born N generations earlier,
copied into an N-cell and zero elsewhere, is an eigenfunction whenever its
normal derivatives vanish at the cell corners.  6-series eigenfunctions all
qualify; for the 5-series the kept part is the nullspace of the rank-2 map to
the three boundary normal derivatives.  Copies in distinct cells have disjoint
supports, and the remainder is their complement inside the eigenspace.
Orthonormality is in the quadrature inner product, which is uniform on
interior vertices, so plain-coordinate linear algebra can be rescaled by the
square root of the common weight.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .decimation import SERIES_FIVE, SERIES_SIX, SERIES_TWO, eigenfunctions_at_level, make_descriptor
from .laplacian import apply_neg_laplacian, level_graph
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
    """Raw (not yet localized) eigenspace sampled on the interior of V_{m_q}:
    the birth eigenspace extended downward by decimation, as a
    plain-coordinate matrix with linearly independent columns."""
    return eigenfunctions_at_level(desc, m_q)[level_topology(m_q).interior_indices]


def orthonormalize(vectors, m_q):
    """Quadrature-orthonormal basis of the column span."""
    w = interior_weight(m_q)
    q, r = np.linalg.qr(np.sqrt(w) * vectors)
    if np.min(np.abs(np.diag(r))) < 1e-12 * np.max(np.abs(np.diag(r))):
        raise ValueError("input columns are numerically dependent")
    return q / np.sqrt(w)


def _cell_eigenspace(desc, m_q, scale):
    """Quadrature-orthonormal columns on the interior of V_{m_q - scale}, each
    of which, copied into any scale-cell, is an eigenfunction of `desc` at
    level m_q.  Requires 1 <= scale < birth and a 5- or 6-series descriptor."""
    if desc.series == SERIES_SIX and desc.birth - scale < 2:
        return np.zeros((0, 0))  # no 6-series is born at level 1
    small = make_descriptor(desc.series, desc.birth - scale, desc.signs)
    level = m_q - scale
    vectors = plain_basis(small, level).vectors
    if desc.series == SERIES_FIVE:
        topo = level_topology(level)
        full = np.zeros((topo.n_vertices, vectors.shape[1]))
        full[topo.interior_indices] = vectors
        normal = apply_neg_laplacian(level_graph(level), full)[topo.boundary_mask]
        # the three normal derivatives have rank 2; keep their nullspace
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
    for r in range(len(cells)):
        vectors[rows[r], r * p:(r + 1) * p] = copy
    # a complete QR of the copies' coefficients splits the eigenspace exactly
    coeffs = interior_weight(m_q) * basis.T @ vectors[:, :n_loc]
    vectors[:, n_loc:] = basis @ np.linalg.qr(coeffs, mode="complete")[0][:, n_loc:]
    tags = tuple(c for c in cells for _ in range(p)) + (NONLOCALIZED,) * (basis.shape[1] - n_loc)
    return vectors, tags


def localize_basis(raw, desc, m_q, scale):
    """Split an eigenspace into per-cell localized vectors plus a remainder.

    Localized columns come first, grouped by cell in address order; every
    localized column vanishes outside its cell, and the whole output spans
    the same subspace as `raw`.  At scale 0 the single 0-cell holds every
    column.  The 2-series and a scale of None or of at least the generation
    of birth localize nothing.
    """
    basis = orthonormalize(raw, m_q)
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


def localized_eigenspace(desc, m_q, scale):
    """The eigenspace of `desc` sampled at level m_q and split at the scale."""
    return localize_basis(eigenspace_vectors(desc, m_q), desc, m_q, scale)


def plain_basis(desc, m_q):
    """Orthonormal eigenspace basis with no localization split."""
    vecs = orthonormalize(eigenspace_vectors(desc, m_q), m_q)
    return EigenspaceBasis(
        descriptor=desc,
        level=m_q,
        vectors=vecs,
        tags=(NONLOCALIZED,) * vecs.shape[1],
        scale=None,
    )


def gram_matrix(basis):
    w = interior_weight(basis.level)
    return w * basis.vectors.T @ basis.vectors


def orthonormality_check(basis):
    """Max deviation of the quadrature Gram matrix from the identity."""
    g = gram_matrix(basis)
    return float(np.max(np.abs(g - np.eye(g.shape[0]))))


def principal_angle_gap(a, b, m_q):
    """Largest principal-angle sine between the column spans of a and b."""
    w = interior_weight(m_q)
    qa = np.linalg.qr(np.sqrt(w) * a)[0]
    qb = np.linalg.qr(np.sqrt(w) * b)[0]
    # sine computed from the projection residual, accurate near zero angle
    ra = qb - qa @ (qa.T @ qb)
    rb = qa - qb @ (qb.T @ qa)
    return float(max(np.linalg.norm(ra, 2), np.linalg.norm(rb, 2)))


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
