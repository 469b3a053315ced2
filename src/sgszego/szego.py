"""Compressed multiplication operators on eigenspaces of the gasket
Laplacian, their log-determinants, spectral functionals, and the convergence
and equidistribution experiments built on them."""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .decimation import SERIES_SIX, enumerate_spectrum, make_descriptor
from .eigenbasis import NONLOCALIZED, eigenspace_vectors, localize_basis
from .topology import enumerate_cells, interior_weight, level_topology, quadrature

MQ_CAP = 7  # desk-scale cap on the sampling level (matrix side <= 3279)


class NotPositiveDefiniteError(Exception):
    """Raised when a compressed operator admits no Cholesky factorization."""


@dataclass(frozen=True)
class CompressedOperator:
    """Matrix of the multiplication operator compressed to an eigenbasis.

    Entries are quadrature inner products <f u_a, u_b>.  In cutoff mode the
    matrix is block diagonal across eigenvalues; block boundaries are kept in
    `blocks` as (descriptor, start, stop) triples.
    """

    mode: str  # "single" | "cutoff"
    matrix: np.ndarray
    tags: tuple
    blocks: tuple = ()

    @property
    def dimension(self):
        return self.matrix.shape[0]


def assemble_compressed(f_values_interior, basis):
    """M[a, b] = sum_x w(x) f(x) u_a(x) u_b(x) over interior vertices."""
    w = interior_weight(basis.level)
    u = basis.vectors
    mat = w * (u.T * f_values_interior) @ u
    mat = 0.5 * (mat + mat.T)
    return CompressedOperator(
        mode="single",
        matrix=mat,
        tags=basis.tags,
        blocks=((basis.descriptor, 0, mat.shape[0]),),
    )


def log_det(op_or_matrix):
    """Sum of log factor diagonal of a symmetric positive-definite matrix."""
    mat = op_or_matrix.matrix if isinstance(op_or_matrix, CompressedOperator) else op_or_matrix
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "compressed operator is not positive definite "
            "(f non-positive somewhere, or discretization too coarse)"
        ) from exc
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def spectral_functional(op, func):
    """(1/d) sum F(sigma_k) over the eigenvalues of the compressed operator."""
    sigma = operator_eigenvalues(op)
    return float(np.mean([func(s) for s in sigma]))


def operator_eigenvalues(op):
    if op.mode == "cutoff" and len(op.blocks) > 1:
        parts = [np.linalg.eigvalsh(op.matrix[a:b, a:b]) for _, a, b in op.blocks]
        return np.sort(np.concatenate(parts))
    return np.linalg.eigvalsh(op.matrix)


def reference_integral(f, func, level):
    """Integral of F(f) for the self-similar measure: exact cell sums where
    the function supports them, quadrature at the given level otherwise."""
    if hasattr(f, "cell_integral"):
        return f.cell_integral(func)
    scheme = quadrature(level)
    vals = f.sample(level_topology(level))
    return float(scheme.weights @ np.array([func(v) for v in vals]))


def riemann_points(d):
    """d sample points, one per cell at the scale where the cell count first
    reaches d; addresses are strided evenly through the lexicographic order
    so the family stays equidistributed for the self-similar measure."""
    r = 0
    while 3 ** r < d:
        r += 1
    cells = enumerate_cells(r)
    idx = [(i * len(cells)) // d for i in range(d)]
    return [(cells[i], 1) for i in idx]


def equidistribution_compare(op, f, func):
    """Gap between the spectral average of F and the Riemann average of
    F(f(s_k)) over the matched point set."""
    spectral = spectral_functional(op, func)
    pts = riemann_points(op.dimension)
    riemann = float(np.mean([func(f.at_vertex(w, c)) for w, c in pts]))
    return spectral, riemann, abs(spectral - riemann)


@dataclass
class SzegoExperimentRecord:
    mode: str
    index: int  # j (single) or m (cutoff)
    dimension: int
    logdet_over_d: float
    integral: float
    error: float
    localized_dim: int = 0
    nonlocalized_dim: int = 0
    runtime: float = 0.0
    extra: dict = field(default_factory=dict)


def default_sample_level(j, m=0):
    return min(max(j, m) + 1, MQ_CAP)


def _canonical_descriptor(series, j, m):
    """The all-(-1)-after-birth eigenvalue of the series at level m (the
    forced +1 first for the 6-series)."""
    n = m - j
    if series == SERIES_SIX:
        signs = (1,) + (-1,) * max(n - 1, 0) if n > 0 else ()
    else:
        signs = (-1,) * n
    return make_descriptor(series, j, signs)


def szego_single_eigenspace_sweep(f, series, j_range, scale, m_q=None):
    """Per-birth-generation records of |logdet/d - integral log f d(mu)|."""
    records = []
    for j in j_range:
        if scale is not None and j <= scale:
            continue  # no localized vectors guaranteed; skip with warning
        t0 = time.perf_counter()
        mq = m_q if m_q is not None else default_sample_level(j)
        desc = _canonical_descriptor(series, j, mq if mq >= j else j)
        basis = localize_basis(eigenspace_vectors(desc, mq), desc, mq, scale)
        fvals = f.sample(level_topology(mq))[level_topology(mq).interior_indices]
        op = assemble_compressed(fvals, basis)
        ld = log_det(op)
        integral = reference_integral(f, math.log, min(mq + 1, MQ_CAP + 1))
        err = abs(ld / desc.multiplicity - integral)
        records.append(
            SzegoExperimentRecord(
                mode="single",
                index=j,
                dimension=desc.multiplicity,
                logdet_over_d=ld / desc.multiplicity,
                integral=integral,
                error=err,
                localized_dim=basis.localized_count,
                nonlocalized_dim=basis.nonlocalized_count,
                runtime=time.perf_counter() - t0,
            )
        )
    return records


def gamma_partition_counts(m, scale):
    """Bookkeeping for the cutoff proof: (#eigenvalues with birth > scale,
    total dimension of eigenspaces with birth <= scale), computed exactly
    from the enumeration."""
    table = enumerate_spectrum(m)
    in_gamma = sum(1 for d in table.entries if d.birth > scale)
    outside_dim = sum(d.multiplicity for d in table.entries if d.birth <= scale)
    return in_gamma, outside_dim


def cutoff_operator(f, m, scale, m_q=None):
    """Block-diagonal compressed operator over the full level-m spectrum."""
    mq = m_q if m_q is not None else default_sample_level(0, m)
    topo = level_topology(mq)
    fvals = f.sample(topo)[topo.interior_indices]
    table = enumerate_spectrum(m)
    blocks = []
    mats = []
    tags = []
    start = 0
    for desc in table.entries:
        basis = localize_basis(eigenspace_vectors(desc, mq), desc, mq, scale)
        op = assemble_compressed(fvals, basis)
        mats.append(op.matrix)
        tags.extend(basis.tags)
        blocks.append((desc, start, start + desc.multiplicity))
        start += desc.multiplicity
    full = np.zeros((start, start))
    for (_, a, b), mat in zip(blocks, mats):
        full[a:b, a:b] = mat
    return CompressedOperator(mode="cutoff", matrix=full, tags=tuple(tags), blocks=tuple(blocks))


def szego_cutoff_sweep(f, m_range, scale):
    """Per-level records for the all-eigenvalues-up-to-cutoff experiment."""
    records = []
    for m in m_range:
        t0 = time.perf_counter()
        op = cutoff_operator(f, m, scale)
        block_logdets = [log_det(op.matrix[a:b, a:b]) for _, a, b in op.blocks]
        ld = float(sum(block_logdets))
        d = op.dimension
        mq = default_sample_level(0, m)
        integral = reference_integral(f, math.log, min(mq + 1, MQ_CAP + 1))
        in_gamma, outside_dim = gamma_partition_counts(m, scale) if scale is not None else (0, 0)
        records.append(
            SzegoExperimentRecord(
                mode="cutoff",
                index=m,
                dimension=d,
                logdet_over_d=ld / d,
                integral=integral,
                error=abs(ld / d - integral),
                localized_dim=sum(1 for t in op.tags if t != NONLOCALIZED),
                nonlocalized_dim=sum(1 for t in op.tags if t == NONLOCALIZED),
                runtime=time.perf_counter() - t0,
                extra={"gamma_count": in_gamma, "outside_gamma_dim": outside_dim},
            )
        )
    return records


def fit_rate(records):
    """OLS fit of log error against log dimension; returns (exponent, r2)
    where error ~ dimension^(-exponent)."""
    pts = [(r.dimension, r.error) for r in records if r.error > 0.0]
    if len(pts) < 2:
        return float("nan"), float("nan")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), r2


def beta_exponent(alpha):
    """Decay exponent for a single eigenspace and Holder order alpha."""
    return alpha * math.log(5.0 / 3.0) / (math.log(3.0) + alpha * math.log(5.0 / 3.0))


def beta_tilde_exponent(alpha):
    """Decay exponent for the cutoff experiment."""
    return beta_exponent(alpha) * (1.0 - math.log(2.0) / math.log(3.0))


def export_records_csv(records, path, header_lines=()):
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        wr = csv.writer(fh)
        wr.writerow(["mode", "index", "d", "logdet_over_d", "integral", "error",
                     "localized_dim", "nonlocalized_dim"])
        for r in records:
            wr.writerow([r.mode, r.index, r.dimension, repr(r.logdet_over_d),
                         repr(r.integral), repr(r.error), r.localized_dim, r.nonlocalized_dim])


def export_loglog_csv(records, path, header_lines=()):
    """Plot-ready (log d, log error) pairs."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        wr = csv.writer(fh)
        wr.writerow(["log_d", "log_error"])
        for r in records:
            if r.error > 0.0:
                wr.writerow([repr(math.log(r.dimension)), repr(math.log(r.error))])
