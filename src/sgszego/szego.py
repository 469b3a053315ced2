"""Compressed multiplication operators on eigenspaces of the gasket
Laplacian, their log-determinants, spectral functionals, and the convergence
and equidistribution experiments built on them."""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .decimation import SERIES_SIX, enumerate_spectrum, make_descriptor
from .eigenbasis import localize_basis
from .topology import interior_weight, level_topology, quadrature

MQ_CAP = 7  # desk-scale cap on the sampling level (3279 interior vertices)
# desk-scale caps on --m of the commands that build one level: the
# `topology` tables of `topology` and `resistance` and the `spectrum`
# descriptors grow about 3x and 2x per level (`resistance --m 12` runs in
# about 0.6 s and 170 MB)
LEVEL_CAPS = {"resistance": 12, "topology": 12, "spectrum": 20}


class NotPositiveDefiniteError(Exception):
    """Raised when a compressed operator admits no Cholesky factorization."""


class FunctionalValueError(ArithmeticError):
    """Raised when a functional fails, or leaves the finite reals, at a value
    it is applied to."""


def checked(name, func):
    """`func` that raises FunctionalValueError naming `name` and the argument
    on any exception, complex result or non-finite result."""
    def wrapped(x):
        try:
            y = func(x)
            finite = not isinstance(y, complex) and math.isfinite(y)
        except Exception as exc:  # func may be user input: any failure of it is numerical
            raise FunctionalValueError(f"{name} fails at x={float(x)!r}: {exc}") from exc
        if not finite:
            raise FunctionalValueError(f"{name} at x={float(x)!r} gives {y!r}, not a finite real")
        return float(y)
    return wrapped


@dataclass(frozen=True)
class CompressedOperator:
    """Multiplication operator compressed to a sum of eigenspaces.

    Eigenspaces are orthogonal, so the operator is block diagonal across
    them; `parts` keeps one (descriptor, matrix) pair per eigenspace, with
    entries the quadrature inner products <f u_a, u_b>.  `localized` counts
    the localized basis vectors, and `level` is the sampling level the blocks
    were assembled at.
    """

    parts: tuple
    localized: int
    level: int

    @property
    def dimension(self):
        return sum(mat.shape[0] for _, mat in self.parts)

    @property
    def matrix(self):
        """The dense block-diagonal matrix, assembled on every access."""
        full = np.zeros((self.dimension, self.dimension))
        start = 0
        for _, mat in self.parts:
            stop = start + mat.shape[0]
            full[start:stop, start:stop] = mat
            start = stop
        return full


def assemble_compressed(f_values_interior, basis):
    """M[a, b] = sum_x w(x) f(x) u_a(x) u_b(x) over interior vertices, formed
    from the basis's split without its dense columns: per cell the block
    w_{m_q - N} S^T diag(f on the cell) S of the small eigenspace S, each
    cell's rows of the coupling to the remainder, and the remainder block.
    Copies in distinct cells have disjoint supports, so the blocks between
    them are zero.  That costs n (p^2 + p r + r^2) instead of n d^2."""
    w = interior_weight(basis.level)
    f, small, rem = f_values_interior, basis.small, basis.remainder
    n_loc = basis.localized_count
    tail = w * (rem.T * f) @ rem
    mat = np.zeros((basis.dimension, basis.dimension))
    mat[n_loc:, n_loc:] = 0.5 * (tail + tail.T)
    p = small.shape[1]
    for c, rows in enumerate(basis.rows):
        block = slice(c * p, (c + 1) * p)
        weighted = small.T * f[rows]
        local = interior_weight(basis.level - basis.scale) * weighted @ small
        mat[block, block] = 0.5 * (local + local.T)
        mat[block, n_loc:] = (w * basis.copy_factor) * (weighted @ rem[rows])
    mat[n_loc:, :n_loc] = mat[:n_loc, n_loc:].T
    return CompressedOperator(parts=((basis.descriptor, mat),), localized=basis.localized_count,
                              level=basis.level)


def compressed_operator(f, descriptors, m_q, scale):
    """f compressed to the sum of the eigenspaces of `descriptors`, each
    sampled at level m_q and localized at the given scale; raises
    FunctionalValueError when a block has a non-finite entry."""
    topo = level_topology(m_q)
    fvals = f.sample(topo)[topo.interior_indices]
    parts, localized = [], 0
    for desc in descriptors:
        basis = localize_basis(desc, m_q, scale)
        parts.extend(assemble_compressed(fvals, basis).parts)
        localized += basis.localized_count
    if not all(np.isfinite(mat).all() for _, mat in parts):
        raise FunctionalValueError(f"f={f.label()} compressed at level {m_q} has non-finite entries")
    return CompressedOperator(parts=tuple(parts), localized=localized, level=m_q)


def log_det(op_or_matrix):
    """Log-determinant by Cholesky of a symmetric positive-definite matrix, or
    of a compressed operator as the sum over its blocks."""
    if isinstance(op_or_matrix, CompressedOperator):
        return sum(log_det(mat) for _, mat in op_or_matrix.parts)
    try:
        chol = np.linalg.cholesky(op_or_matrix)
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
    """Eigenvalues of every block, in ascending order."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(mat) for _, mat in op.parts]))


def reference_integral(f, func, level):
    """Integral of F(f) for the self-similar measure: exact cell sums where
    the function supports them, quadrature at the given level otherwise."""
    if hasattr(f, "cell_integral"):
        return f.cell_integral(func)
    vals = f.sample(level_topology(level))
    return float(quadrature(level) @ np.array([func(v) for v in vals]))


def riemann_points(d):
    """(r, ranks) of d sample cells at the scale r where the cell count first
    reaches d; the ranks are strided evenly through the lexicographic order so
    the family stays equidistributed for the self-similar measure.  The
    sample point of a cell is its corner q_1."""
    r = 0
    while 3 ** r < d:
        r += 1
    return r, np.arange(d) * 3 ** r // d


def equidistribution_compare(op, f, func):
    """Gap between the spectral average of F and the Riemann average of
    F(f(s_k)) over the matched point set.

    f is sampled once, at L = max(r, op.level).  Corner q_1 of an r-cell w is
    corner q_1 of the L-cell w1...1, and its value in that sample is exact:
    extension keeps the value at every existing vertex, and the least L-cell
    containing a vertex lies in its least cell at any coarser scale."""
    spectral = spectral_functional(op, func)
    r, ranks = riemann_points(op.dimension)
    level = max(r, op.level)
    topo = level_topology(level)
    values = f.sample(topo)[topo.cell_vertices[ranks * 3 ** (level - r), 0]]
    riemann = float(np.mean([func(v) for v in values.tolist()]))
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


def single_operator(f, series, j, scale, m_q=None):
    """f compressed to the canonical eigenspace of the series born at j."""
    mq = m_q if m_q is not None else default_sample_level(j)
    return compressed_operator(f, [_canonical_descriptor(series, j, mq)], mq, scale)


def cutoff_operator(f, m, scale, m_q=None):
    """f compressed to every eigenspace of the level-m spectrum."""
    mq = m_q if m_q is not None else default_sample_level(0, m)
    return compressed_operator(f, enumerate_spectrum(m).entries, mq, scale)


def _record(mode, index, f, op, t0):
    """|logdet/d - integral log f d(mu)| for one operator; the integral is
    taken one level finer than the operator's sampling level."""
    d = op.dimension
    ld = log_det(op)
    log_f = checked(f"log f for f={f.label()}", math.log)
    integral = reference_integral(f, log_f, op.level + 1)
    return SzegoExperimentRecord(
        mode=mode,
        index=index,
        dimension=d,
        logdet_over_d=ld / d,
        integral=integral,
        error=abs(ld / d - integral),
        localized_dim=op.localized,
        nonlocalized_dim=d - op.localized,
        runtime=time.perf_counter() - t0,
    )


def operators(f, mode, indices, scale, series=SERIES_SIX, m_q=None):
    """(index, operator) for each index of the sweep: the canonical eigenspace
    of the series born at each j in single mode, every eigenspace up to each
    level m in cutoff mode.  Operators are built as they are drawn."""
    for index in indices:
        if mode == "cutoff":
            yield index, cutoff_operator(f, index, scale, m_q)
        elif scale is None or index > scale:  # a birth j <= N has no localized vectors
            yield index, single_operator(f, series, index, scale, m_q)


def szego_sweep(f, mode, indices, scale, series=SERIES_SIX, m_q=None):
    """Per-index records of |logdet/d - integral log f d(mu)|; a record's
    runtime spans building its operator and evaluating it."""
    records, t0 = [], time.perf_counter()
    for index, op in operators(f, mode, indices, scale, series, m_q):
        records.append(_record(mode, index, f, op, t0))
        t0 = time.perf_counter()
    return records


def fit_rate(records):
    """OLS fit of log error against log dimension; returns (exponent, r2)
    where error ~ dimension^(-exponent), or (None, None) when fewer than two
    records have a positive error."""
    pts = [(r.dimension, r.error) for r in records if r.error > 0.0]
    if len(pts) < 2:
        return None, None
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
