"""Log-determinants of compressed operators by one Schur recursion up the
cells of each birth space, from the kernels of its birth-cells, with no
tree block formed.

A column of a birth space's cell tree talks to the cells inside its own
through a small interface, so each cell carries one small form, stacked
over the group's words and the cells of a level.  A step takes the forms
of a parent's three children, K_i on their coordinates, and the maps X_i
from the parent's own columns and A_i from its coordinates to theirs.  One
product of the stacked forms with a table of the step gives
B = sum X_i^T K_i X_i, W = sum X_i^T K_i A_i and F = sum A_i^T K_i A_i; the
log-det gains log det B, and the parent's form is F - W^T B^-1 W.  A step
with no own columns folds, K = F, and the root, whose coordinates vanish,
needs B alone.

- The 6-series.  A depth-k column is R6(j - k) copied into a k-cell, and
  R6(j - k) is the extension of the midpoint unit vectors of V_1 along the
  chain of `six_series_chain`, times a 3 x 3 map, with the same gamma at
  every absolute level at every depth.  So a cell's coordinates are its
  corner values: A_i are the maps of `midpoints` at the level's gamma, and
  X_i the midpoint table of the identity.  The chain's columns are not
  orthonormal, so the same recursion started at 1/2 I on every birth-cell,
  the plain form on V_birth of functions that vanish on V_0, gives the log
  det of their plain Gram matrix, one number per birth and scale, which
  is subtracted for every word (`_chain_gram`).
- The 5-series.  E5(i) vanishes on V_{i - 1}: in each (i - 1)-cell it is
  E5(1) copied, so the first step folds the birth-cells' kernels into
  2 x 2 forms on those copies' coefficients.  A column K5(n) in a cell is
  the copies of N5(n - 1) in its children times the glue coefficients of
  `five_series_glue`, and so is N5(n), through which every column above
  reaches the cell.  These are the tree's own orthonormal columns.
- The 2-series is its root alone.

A column deeper than the tree levels kept (`below`) is the closed form's,
so the steps at those depths fold.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .decimation import SERIES_FIVE, SERIES_SIX, _midpoint_table, five_series_glue, six_series_chain
from .laplacian import corner_maps


class NotPositiveDefiniteError(Exception):
    """Raised when a compressed operator admits no Cholesky factorization."""

    def __init__(self, message="compressed operator is not positive definite "
                               "(f non-positive somewhere, or discretization too coarse)"):
        super().__init__(message)


@lru_cache(maxsize=None)
def _pairs(n):
    """(rows, columns) of the entries that hold a symmetric n x n form, the
    upper triangle by rows, as the cell kernels hold theirs."""
    return np.triu_indices(n)


def _table(own, up):
    """(table, p) of a step: `own`, (3, n, p), and `up`, (3, n, q), map the
    parent's own columns and its coordinates to each child's coordinates,
    either None if there are none, so each child's coordinates are Z_i =
    [own_i, up_i] of the parent's.  `table` maps the three children's forms,
    each n x n held as `_pairs(n)`, to sum Z_i^T K_i Z_i = [[B, W], [W^T,
    F]], whole, or F alone, held as `_pairs(q)`, if p = 0."""
    maps = np.concatenate([m for m in (own, up) if m is not None], axis=2)
    rows, cols = _pairs(maps.shape[1])
    # the coefficient of K_i[a, b] in (Z_i^T K_i Z_i)[s, t], both (a, b) and (b, a)
    outer = np.einsum("ias,ibt->iabst", maps, maps)
    table = outer[:, rows, cols] + outer[:, cols, rows] * (rows != cols)[:, None, None]
    if own is None:
        rows_q, cols_q = _pairs(maps.shape[2])
        table = table[..., rows_q, cols_q]
    return table.reshape(3 * len(rows), -1), 0 if own is None else own.shape[2]


def _step(forms, table, p):
    """(log det, parent forms) of one step over stacked children's forms,
    three siblings in a row of the flattened stack, whatever the words: the
    sum of log det B over the parents, and their forms (parents,
    q(q + 1)/2), held as `_pairs(q)`, None at the root.  The first p pivots
    of [[B, W], [W^T, F]] are eliminated over the stack, which leaves
    F - W^T B^-1 W; a pivot that is not positive, NaN included, raises
    NotPositiveDefiniteError."""
    out = forms.reshape(-1, table.shape[0]) @ table
    if not p:
        return 0.0, out
    n = math.isqrt(out.shape[-1])
    full = out.reshape(out.shape[:-1] + (n, n))
    pivots = []
    for k in range(p):
        pivot = full[..., k, k]
        if not (pivot > 0.0).all():
            raise NotPositiveDefiniteError
        pivots.append(pivot)
        full[..., k + 1:, k + 1:] -= full[..., k + 1:, k, None] * \
            (full[..., k, None, k + 1:] / pivot[..., None, None])
    logdet = float(np.sum(np.log(pivots)))
    if p == n:
        return logdet, None
    rows, cols = _pairs(n - p)
    return logdet, full[..., p + rows, p + cols]


@lru_cache(maxsize=None)
def _chain_step(gamma, eliminate):
    """The 6-series step up through a level of the given gamma, the
    parent's own columns eliminated or, if not, folded."""
    scale = (2.0 - gamma) * (5.0 - gamma)
    own = _midpoint_table(np.eye(3)) if eliminate else None
    return _table(own, corner_maps(1.0, (4.0 - gamma) / scale, 2.0 / scale))


@lru_cache(maxsize=None)
def _glue_step(i, eliminate):
    """The 5-series step up through the cells that hold R5(i): for i = 1 the
    fold of the birth-cells' kernels onto the copies of E5(1), and for
    i >= 2 K5(i) eliminated or, if not, folded, and N5(i) carried up."""
    coefficients = five_series_glue(i)[0]
    if i == 1:  # E5(1) has no K5
        return _table(None, coefficients)
    return _table(coefficients[..., 2:] if eliminate else None, coefficients[..., :2])


@lru_cache(maxsize=None)
def _root_step(series, birth):
    """The step into the root of a birth space: R6's chain columns, the glue
    of R5(birth) (E5(1) at birth 1) or R2(1)."""
    if series == SERIES_SIX:
        own = _midpoint_table(np.eye(3))
    elif series == SERIES_FIVE:
        own = five_series_glue(birth)[0]
    else:
        own = _midpoint_table(np.full((3, 1), 1.0 / math.sqrt(3.0)))
    return _table(own, None)


def _steps(series, birth, below):
    """(depth, step) of each step from the birth-cells to the root of a
    birth space whose tree keeps the levels of depth below `below` (all if
    None), the depth that of the parents."""
    below = math.inf if below is None else below
    if series == SERIES_SIX:
        # level l holds the children of the (l - 1)-cells, and the last,
        # gamma = 6, has no own columns above it
        for level, gamma in zip(range(birth, 1, -1), six_series_chain(birth)[::-1]):
            yield level - 1, _chain_step(gamma, level - 1 < min(below, birth - 1))
    elif series == SERIES_FIVE and birth > 1:
        for i in range(1, birth):  # R5(i) in the cells of depth birth - i
            yield birth - i, _glue_step(i, i > 1 and birth - i < below)
    yield 0, _root_step(series, birth)


@lru_cache(maxsize=None)
def _unit_form(folds):
    """The form of a 6-series cell `folds` levels above the birth-cells,
    started at 1/2 I on each, the plain form on V_birth of functions that
    vanish on V_0, and folded along the chain: the same for every birth, and
    for every cell of a level, so one cell a level is stepped."""
    if not folds:
        return 0.5 * np.eye(3)[_pairs(3)][None]
    gamma = six_series_chain(folds + 1)[0]  # 6 first, then g_1, g_2, ...
    return _step(np.broadcast_to(_unit_form(folds - 1), (3, 6)), *_chain_step(gamma, False))[1]


@lru_cache(maxsize=None)
def _chain_gram(n):
    """log det S, S the plain Gram matrix of the chain's three columns of
    R6(n) on V_n: the root's B from the 1/2 I form folded to the 1-cells."""
    return _step(np.broadcast_to(_unit_form(n - 1), (3, 6)), *_root_step(SERIES_SIX, n))[0]


def group_log_det(series, birth, below, kernels):
    """Log-determinant of a birth group's tree levels of depth below `below`
    (all if None), summed over its words, from its birth-cells' kernels
    divided by each word's rho, (G, 3^birth, 6) held as `_pairs(3)`."""
    total, forms = 0.0, kernels
    for _, step in _steps(series, birth, below):
        logdet, forms = _step(forms, *step)
        total += logdet
    if series == SERIES_SIX:
        # R6(birth - k) is the chain's three columns of a depth-k cell times
        # a 3 x 3 map, so their plain Gram matrix is block diagonal over the
        # kept cells, the block of a depth-k cell the S of R6(birth - k)
        depths = birth - 1 if below is None else min(below, birth - 1)
        total -= len(kernels) * sum(3**k * _chain_gram(birth - k) for k in range(depths))
    return total
