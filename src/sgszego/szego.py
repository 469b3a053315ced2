"""Compressed multiplication operators on eigenspaces of the gasket
Laplacian, their log-determinants, spectral functionals, and the convergence
and equidistribution experiments built on them."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .decimation import SERIES_SIX, cell_tree, enumerate_spectrum, make_groups
from .eigenbasis import localize_basis
from .topology import (interior_cell_rows, interior_count, interior_weight, level_topology,
                       quadrature)

# the default sampling level is min(index + 1, MQ_CAP).  Memory no longer
# calls for the cap, since chunks bound it; it keeps cutoff m=7 sampled at
# level 7, where the benchmark's reference log-dets were recorded, until
# those are recorded again at level 8
MQ_CAP = 7

# bytes of basis parts a birth group builds at once (`chunk_words`).  In a
# sweep of 1 to 4 MiB, 1.5 MiB gave the lowest peak of cutoff m=7 and ran
# cutoff m = 8 and 9 as fast as the larger budgets; 1 MiB ran 5-10 % slower
CHUNK_BYTES = 3 << 19

# the field that holds the index range of each sweep mode
INDEX_FIELDS = {"single": "j", "cutoff": "m"}


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


def checked_log(name):
    """np.log over an array that raises FunctionalValueError at the first
    value that is <= 0 or not finite, with the message that
    `checked(name, math.log)` gives at that value."""
    def log(values):
        values = np.asarray(values, dtype=float)
        bad = ~(np.isfinite(values) & (values > 0.0))
        if bad.any():
            checked(name, math.log)(values.flat[np.argmax(bad)])  # raises
        return np.log(values)
    return log


@dataclass(frozen=True)
class TreeBlocks:
    """The compressed matrices of a birth group's G eigenspaces over the
    cell tree of its basis, stacked over the group.  Level i has the depth
    `depths[i]` of the basis's level i (deepest first) and `couplings[i]`,
    (G, 3^depth, c_i, c_i + c_{i+1} + ...): each cell's own columns against
    its own columns and then against those of its ancestor at every
    shallower level, in level order.  Entries between columns whose cells
    are not nested are zero and not stored."""

    depths: tuple
    couplings: tuple

    @property
    def eigenspaces(self):
        return self.couplings[0].shape[0]

    @property
    def column_counts(self):
        """Columns per tree level: 3^depth cells of c_i columns each."""
        return [3**k * rows.shape[2] for k, rows in zip(self.depths, self.couplings)]

    @property
    def dimension(self):
        return sum(self.column_counts)


@dataclass(frozen=True)
class CompressedOperator:
    """Multiplication operator compressed to a sum of eigenspaces.

    Eigenspaces are orthogonal, so the operator is block diagonal across
    them; `blocks` keeps one `TreeBlocks` per birth group, the matrices of
    its G eigenspaces, with entries the quadrature inner products
    <f u_a, u_b>.  `localized` counts the localized basis vectors, and
    `level` is the sampling level the blocks were assembled at.
    """

    blocks: tuple
    localized: int
    level: int

    @property
    def dimension(self):
        return sum(group.eigenspaces * group.dimension for group in self.blocks)

    @property
    def matrix(self):
        """The dense block-diagonal matrix, one block per eigenspace in
        group order, assembled on every access."""
        full = np.zeros((self.dimension, self.dimension))
        start = 0
        for stack in map(dense_blocks, self.blocks):
            for mat in stack:
                stop = start + len(mat)
                full[start:stop, start:stop] = mat
                start = stop
        return full


def assemble_compressed(f_values_interior, basis):
    """The `TreeBlocks` of a birth group's eigenspaces,
    M[a, b] = sum_x w(x) f(x) u_a(x) u_b(x) over interior vertices, one pair
    of tree levels at a time, from the basis's parts without its dense
    columns.  For a depth-k cell and its ancestor at depth k' <= k, f and the
    ancestor's part are gathered onto the cell's interior rows
    (`interior_cell_rows(m_q - k', k - k')`), so each pair of levels costs
    about c_k c_k' n flops, stacked over the group and the cells."""
    return TreeBlocks(depths=basis.depths, couplings=tuple(
        _level_couplings(f_values_interior, basis, i) for i in range(len(basis.depths))))


def _level_couplings(f, basis, i):
    """Level i's couplings of `assemble_compressed`; the level's copies are
    freed on return, and an ancestor's before the next one is gathered."""
    m_q, g = basis.level, len(basis.group)
    k, part = basis.depths[i], basis.parts[i]
    c, n_k = part.shape[2], part.shape[1]
    # (G, cells, c, n_k): the cell's own columns times f on the cell
    weighted = part.transpose(0, 2, 1)[:, None] * f[interior_cell_rows(m_q, k)][:, None]
    blocks = []
    for k_up, up in zip(basis.depths[i:], basis.parts[i:]):
        span = 3 ** (k - k_up)
        # (G, span, n_k, c'): the ancestor's part on each of its span cells of depth k
        gathered = up[:, interior_cell_rows(m_q - k_up, k - k_up)] if span > 1 else up[:, None]
        block = weighted.reshape(g, -1, span, c, n_k) @ gathered[:, None]
        del gathered
        blocks.append(interior_weight(m_q) * 3.0 ** ((k + k_up) / 2)
                      * block.reshape(g, 3**k, c, -1))
    blocks[0] = 0.5 * (blocks[0] + blocks[0].swapaxes(-1, -2))
    return np.concatenate(blocks, axis=-1)


def dense_blocks(group):
    """The (G, d, d) matrices of a group's eigenspaces in the column order of
    its basis, filled from its tree blocks: the one dense form, for
    `operator_eigenvalues` and the `matrix` oracle."""
    sizes = group.column_counts
    starts = np.cumsum([0] + sizes)
    out = np.zeros((group.eigenspaces, starts[-1], starts[-1]))
    for i, (k, rows) in enumerate(zip(group.depths, group.couplings)):
        own = starts[i] + np.arange(sizes[i]).reshape(3**k, -1)
        col = 0
        for up in range(i, len(sizes)):
            c_up = group.couplings[up].shape[2]
            ancestor = np.arange(3**k) // 3 ** (k - group.depths[up])
            cols = starts[up] + ancestor[:, None] * c_up + np.arange(c_up)
            block = rows[..., col:col + c_up]
            out[:, own[:, :, None], cols[:, None, :]] = block
            out[:, cols[:, :, None], own[:, None, :]] = block.swapaxes(-1, -2)
            col += c_up
    return out


def chunk_words(group, m_q):
    """Sign words of a birth group to build and compress at once: as many
    as CHUNK_BYTES holds of the parts `localize_basis` makes for one word,
    8 c_i bytes per interior vertex of V_{m_q - k_i} over the depths k_i of
    the group's cell tree.  At least one, and at least two in a group of
    several: the einsum of `eigenbasis._normalized` sums the squares of one
    column alone with several accumulators, and those of a stack of columns
    row after row, so a lone one-column word would not be normalized bit for
    bit as in its group."""
    tree = cell_tree(group.series, group.birth)
    per_word = 8 * sum(vals.shape[1] * interior_count(m_q - k) for k, vals in tree)
    return max(min(2, len(group)), CHUNK_BYTES // per_word)


def word_chunks(group, m_q):
    """The group in consecutive chunks of `chunk_words` words, a lone last
    word joining the chunk before it."""
    size = chunk_words(group, m_q)
    starts = list(range(0, len(group), size))
    if len(starts) > 1 and starts[-1] == len(group) - 1:
        starts.pop()
    return [group[a:b] for a, b in zip(starts, starts[1:] + [len(group)])]


def compressed_operator(f, groups, m_q, scale):
    """f compressed to the sum of the eigenspaces of the birth groups, each
    sampled at level m_q and localized at the given scale, built one group
    at a time and each group in `word_chunks`, whose blocks are
    stacked into the group's; raises FunctionalValueError when a block has
    a non-finite entry.  Every slice of a stacked extension or assembly is
    the call on that slice alone, so the blocks do not depend on the
    chunks."""
    topo = level_topology(m_q)
    fvals = f.sample(topo)[topo.interior_indices]
    blocks, localized = [], 0
    for group in groups:
        chunks = []
        for chunk in word_chunks(group, m_q):
            basis = localize_basis(chunk, m_q, scale)
            chunks.append(assemble_compressed(fvals, basis))
            localized += len(chunk) * basis.localized_count
            del basis  # freed before the next chunk's is built
        blocks.append(chunks[0] if len(chunks) == 1 else TreeBlocks(
            depths=chunks[0].depths,
            couplings=tuple(map(np.concatenate, zip(*(c.couplings for c in chunks))))))
    if not all(np.isfinite(rows).all() for group in blocks for rows in group.couplings):
        raise FunctionalValueError(f"f={f.label()} compressed at level {m_q} has non-finite entries")
    return CompressedOperator(blocks=tuple(blocks), localized=localized, level=m_q)


def _eliminate(group):
    """Log-determinant of a group's tree blocks, summed over its
    eigenspaces, by multifrontal Cholesky over the cell tree, deepest level
    first.  A cell's frontal matrix covers its own columns and then its
    ancestors'; its pivot block is factored, the Schur complement of the
    pivot is the update to the ancestors' columns, and the updates of the
    cells that share an ancestor at the next level up are summed into that
    ancestor's frontal matrix.  Eliminating a cell fills nothing outside
    its ancestors, so no matrix of the eigenspace's size is formed."""
    logdet, update = 0.0, None
    for i, rows in enumerate(group.couplings):
        c = rows.shape[2]
        front = rows if update is None else rows + update[..., :c, :]
        try:
            chol = np.linalg.cholesky(front[..., :c])
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                "compressed operator is not positive definite "
                "(f non-positive somewhere, or discretization too coarse)"
            ) from exc
        logdet += 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)))
        if i + 1 == len(group.depths):
            return float(logdet)
        solved = np.linalg.solve(chol, front[..., c:])
        schur = -(solved.swapaxes(-1, -2) @ solved)
        if update is not None:
            schur += update[..., c:, c:]
        up = schur.shape[-1]
        parents = 3 ** group.depths[i + 1]
        update = schur.reshape(len(rows), parents, -1, up, up).sum(axis=2)


def log_det(op_or_matrix):
    """Log-determinant of a compressed operator, the sum over its groups'
    tree eliminations, or of a symmetric positive-definite matrix or a
    stack of them (the sum over the stack), a tree of one level."""
    if isinstance(op_or_matrix, CompressedOperator):
        return sum(_eliminate(group) for group in op_or_matrix.blocks)
    stack = np.asarray(op_or_matrix, dtype=float)
    stack = stack.reshape((-1, 1) + stack.shape[-2:])
    return _eliminate(TreeBlocks(depths=(0,), couplings=(stack,)))


def spectral_functional(op, func):
    """(1/d) sum F(sigma_k) over the eigenvalues of the compressed operator."""
    sigma = operator_eigenvalues(op)
    return float(np.mean([func(s) for s in sigma]))


def operator_eigenvalues(op):
    """Eigenvalues of every block, in ascending order."""
    return np.sort(np.concatenate(
        [np.linalg.eigvalsh(dense_blocks(group)).ravel() for group in op.blocks]))


def reference_integral(f, func, level):
    """Integral of F(f) for the self-similar measure: exact cell sums where
    the function supports them, quadrature at the given level otherwise.
    `func` maps an array of values elementwise, as `checked_log` does."""
    if hasattr(f, "cell_integral"):
        return f.cell_integral(func)
    return float(quadrature(level) @ func(f.sample(level_topology(level))))


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


def _canonical_group(series, j, m):
    """The all-(-1)-after-birth eigenvalue of the series at level m (the
    forced +1 first for the 6-series), a group of one word."""
    first = 1 if series == SERIES_SIX else -1
    return make_groups([(series, j, [(first,) + (-1,) * (m - j - 1) if m > j else ()])])[0]


def sweep_plan(mode, indices, scale, series=SERIES_SIX, m_q=None):
    """(index, birth groups, sampling level) per index: the canonical
    eigenspace of the series born at j in single mode, every birth group of
    the level-m spectrum in cutoff mode, sampled at m_q if given and
    otherwise at min(index + 1, MQ_CAP).  Refuses, by a ValueError that
    starts with the field at fault, a negative scale N, an index outside
    1..its level, a birth the series does not have, and in single mode a
    birth j <= N, which has no localized vectors."""
    if mode not in INDEX_FIELDS:
        raise ValueError("mode: must be single or cutoff")
    if scale is not None and scale < 0:
        raise ValueError("N: must be >= 0")
    field, plan = INDEX_FIELDS[mode], []
    for index in indices:
        level = m_q if m_q is not None else min(index + 1, MQ_CAP)
        if not 1 <= index <= level:
            raise ValueError(f"{field}: {index} lies outside 1..{level}, its sampling level")
        if mode == "cutoff":
            plan.append((index, enumerate_spectrum(index), level))
            continue
        if scale is not None and index <= scale:
            raise ValueError(f"N: {scale} is not below the birth j={index}: no localized vectors")
        try:
            plan.append((index, (_canonical_group(series, index, level),), level))
        except ValueError as exc:
            raise ValueError(f"{field}: {exc}") from None
    return plan


def _record(mode, index, f, op, t0):
    """|logdet/d - integral log f d(mu)| for one operator; the integral is
    taken one level finer than the operator's sampling level."""
    d = op.dimension
    ld = log_det(op)
    integral = reference_integral(f, checked_log(f"log f for f={f.label()}"), op.level + 1)
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
    """(index, operator) for each entry of `sweep_plan`, which refuses a
    sweep before its first operator; operators are built as they are drawn."""
    for index, groups, level in sweep_plan(mode, indices, scale, series, m_q):
        yield index, compressed_operator(f, groups, level, scale)


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
