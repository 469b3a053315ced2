"""Log-determinants and matrices of compressed operators by one Schur
recursion up the cells of each birth space, from the kernels of its
birth-cells, with no tree block formed.

A column of a birth space's cell tree talks to the cells inside its own
through a small interface, so each cell carries one small form, stacked
over the group's words and the cells of a level.  A step takes the forms
of a parent's three children, K_i on their coordinates, and the maps
Z_i = [X_i, A_i] from the parent's own columns and its coordinates to
theirs.  One product of the stacked forms with a table of the step gives
B = sum X_i^T K_i X_i, W = sum X_i^T K_i A_i and F = sum A_i^T K_i A_i; the
log-det gains log det B, and the parent's form is F - W^T B^-1 W.  A step
with no own columns folds, K = F, and the root, whose coordinates vanish,
needs B alone.  Kept, not eliminated, the own columns give the matrices
whose eigenvalues `szego` takes (`group_matrices`).

- The 6-series.  A depth-k column is R6(j - k) copied into a k-cell, and
  R6(n) is the extension of the midpoint unit vectors of V_1 along the
  chain of `six_series_chain`, the same gamma at every absolute level at
  every depth, times L(n), L(n) L(n)^T = S(n)^-1.  So a cell's coordinates
  are its corner values: A_i are the maps of `midpoints` at the level's
  gamma, and X_i the midpoint table of L(n).  S(n), the chain columns'
  plain Gram matrix, is the root's B of 1/2 I on the birth-cells, folded.
- The 5-series.  E5(i) vanishes on V_{i - 1}: in each (i - 1)-cell it is
  E5(1) copied, so the first step folds the birth-cells' kernels into
  2 x 2 forms on those copies' coefficients.  A column K5(n) in a cell is
  the copies of N5(n - 1) in its children times the glue coefficients of
  `five_series_glue`, and so is N5(n), through which every column above
  reaches the cell: in the tables' basis one glue for every n >= 2.
- The 2-series is its root alone.

These are the tree's own orthonormal columns.  A column deeper than the
tree levels kept (`below`) is the closed form's: those steps fold.  Read
top-down, the same columns give the corner tables of the tree
(`remainder_table`), which `szego.basis_columns` extends and places.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .decimation import SERIES_FIVE, SERIES_SIX, _midpoint_table, five_series_glue, six_series_chain
from .laplacian import child_corners, corner_maps, midpoints


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
    """(table, p, maps) of a step: `own`, (3, n, p), and `up`, (3, n, q), map
    the parent's own columns and its coordinates to each child's
    coordinates, either None if there are none, and `maps` holds each
    child's Z_i = [own_i, up_i].  `table` maps the three children's forms,
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
    return table.reshape(3 * len(rows), -1), 0 if own is None else own.shape[2], maps


def _step(forms, step):
    """(log det, parent forms) of one step (`_table`) over stacked
    children's forms, three siblings in a row of the flattened stack,
    whatever the words: the sum of log det B over the parents, and their
    forms (parents, q(q + 1)/2), held as `_pairs(q)`, None at the root.  The
    first p pivots of [[B, W], [W^T, F]] are eliminated over the stack,
    which leaves F - W^T B^-1 W; a pivot that is not positive, NaN included,
    raises NotPositiveDefiniteError."""
    table, p, _ = step
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
def _chain_maps(n):
    """(3, 3, 3), read-only: the `midpoints` maps into the cells that hold
    R6(n), at gamma g_{n - 1} (6 at n = 1)."""
    gamma = six_series_chain(n + 1)[0]
    scale = (2.0 - gamma) * (5.0 - gamma)
    maps = corner_maps(1.0, (4.0 - gamma) / scale, 2.0 / scale)
    maps.flags.writeable = False  # cached and shared by every caller
    return maps


@lru_cache(maxsize=None)
def _chain_step(n, eliminate):
    """The 6-series step into the cells that hold R6(n), own columns eliminated or folded."""
    return _table(_chain_columns(n) if eliminate else None, _chain_maps(n))


@lru_cache(maxsize=None)
def _glue_step(first, eliminate):
    """The 5-series step up through the cells that hold R5(i), one at every
    i >= 2: K5(i) eliminated or folded, N5(i) carried up; at i = 1 (`first`)
    the fold of the birth-cells' kernels onto the copies of E5(1)."""
    coefficients = five_series_glue(1 if first else 2)
    return _table(coefficients[..., 2:] if eliminate else None, coefficients[..., :2])


# R2(1), the constant on the midpoints of V_1: the root of the 2-series
_TWO_ROOT = _midpoint_table(np.full((3, 1), 1.0 / math.sqrt(3.0)))


@lru_cache(maxsize=None)
def _root_step(series, birth):
    """The step into the root of a birth space: R6(birth), R5(birth) (one
    glue from 2 on, asked for as 2; E5(1) at 1) or R2(1)."""
    if series == SERIES_SIX:
        own = _chain_columns(birth)
    elif series == SERIES_FIVE:
        own = five_series_glue(birth)
    else:
        own = _TWO_ROOT
    return _table(own, None)


def _steps(series, birth, below):
    """(depth, step) of each step from the birth-cells to the root of a
    birth space whose tree keeps the levels of depth below `below` (all if
    None), the depth that of the parents."""
    below = math.inf if below is None else below
    if series == SERIES_SIX:
        # the depth-k cells hold R6(birth - k), and the (birth - 1)-cells,
        # above the gamma = 6 level, no own columns
        for depth in range(birth - 1, 0, -1):
            yield depth, _chain_step(birth - depth, depth < min(below, birth - 1))
    elif series == SERIES_FIVE:
        for i in range(1, birth):  # R5(i) in the cells of depth birth - i
            yield birth - i, _glue_step(i == 1, i > 1 and birth - i < below)
        birth = min(birth, 2)  # one root table from 2 on
    yield 0, _root_step(series, birth)


def _exact_fold(form, scale, maps):
    """sum_i maps_i^T form maps_i exactly, as integers (an object array) over
    `scale`: the float64 maps are dyadic, integers over a power of two."""
    ratios = [x.as_integer_ratio() for x in maps.ravel().tolist()]
    unit = max(q for _, q in ratios)
    maps = np.array([p * (unit // q) for p, q in ratios], dtype=object).reshape(maps.shape)
    return (maps.transpose(0, 2, 1) @ form @ maps).sum(0), scale * unit**2


@lru_cache(maxsize=None)
def _chain_form(n):
    """The 1/2 I form of the birth-cells folded n - 1 levels up the chain,
    one cell a level since every cell of a level is alike, exactly: the
    form of the 1-cells of R6(n), and of the cells as far above the
    birth-cells of every R6(n') above, so each level is folded once."""
    if n == 1:
        return np.eye(3, dtype=object), 2
    return _exact_fold(*_chain_form(n - 1), _chain_maps(n - 1))


def _chain_gram(n):
    """S(n), the plain Gram matrix of R6(n)'s chain columns on V_n: the
    root's B of 1/2 I, the plain form on V_n of functions that vanish on
    V_0: `_chain_form(n)` folded onto V_1's midpoints and rounded once."""
    form, scale = _exact_fold(*_chain_form(n), _midpoint_table(np.eye(3)))
    return (form / scale).astype(float)


@lru_cache(maxsize=None)
def _chain_columns(n):
    """(3, 3, 3): the values of R6(n) at its 1-cells' corners, the chain's
    midpoint unit vectors times L(n), L(n) L(n)^T = S(n)^-1."""
    return _midpoint_table(np.eye(3)) @ np.linalg.cholesky(np.linalg.inv(_chain_gram(n)))


@lru_cache(maxsize=None)
def remainder_table(series, i):
    """R(i), the scale-1 remainder of a series at generation i, as its
    corner table (3^i, 3, c): the columns at the three corners of every
    i-cell in rank order, orthonormal in plain coordinates on V_i; cached
    and read-only, so every birth whose cell tree holds R(i) shares it.
    Built top-down from the steps' columns: R6(i) is `_chain_columns(i)`
    extended along `six_series_chain(i)`; R5(i), N5(i) in columns 0, 1 and
    K5(i) in 2, the copies of N5(i - 1) in the 1-cells times the one glue
    of `five_series_glue`; R5(1) = N5(1) and R2(1) are the roots' tables."""
    if series == SERIES_SIX:
        table = _chain_columns(i).transpose(2, 0, 1)  # (columns, cells, corners)
        for gamma in six_series_chain(i):
            table = child_corners(table, midpoints(table, gamma))
        table = table.transpose(1, 2, 0)
    elif series == SERIES_FIVE and i > 1:
        # one product per 1-cell c, the glue's leading axis: ranks c 3^(i - 1) on
        below = remainder_table(series, i - 1)[..., :2].reshape(-1, 2)
        table = np.matmul(below, five_series_glue(i)).reshape(3**i, 3, 3)
    else:
        return five_series_glue(1) if series == SERIES_FIVE else _TWO_ROOT
    table.flags.writeable = False  # cached and shared by every caller
    return table


def group_log_det(series, birth, below, kernels):
    """Log-determinant of a birth group's tree levels of depth below `below`
    (all if None), summed over its words, from its birth-cells' kernels
    divided by each word's rho, (G, 3^birth, 6) held as `_pairs(3)`."""
    total, forms = 0.0, kernels
    for _, step in _steps(series, birth, below):
        logdet, forms = _step(forms, step)
        total += logdet
    return total


def group_matrices(series, birth, below, kernels):
    """(G, d, d): the matrices of a birth group's tree levels of depth below
    `below` (all if None), from the kernels of `group_log_det` by its steps
    with the columns it eliminates kept.  A cell holds one matrix over its
    columns and then its coordinates: a step copies each child's column
    block, multiplies its cross block by Z_i and puts sum Z_i^T K_i Z_i on
    the parent's own columns and coordinates.  A cell's columns are its
    children's, in rank order, and then its own: a nested order, not that
    of `szego.column_cells`."""
    rows, cols = _pairs(3)
    mats = np.empty((kernels.size // 6, 3, 3))
    mats[:, rows, cols] = mats[:, cols, rows] = kernels.reshape(-1, 6)
    for _, (_, _, maps) in _steps(series, birth, below):
        mats = mats.reshape((-1, 3) + mats.shape[1:])
        c = mats.shape[-1] - maps.shape[1]  # each child's columns
        out = np.zeros((len(mats),) + (3 * c + maps.shape[2],) * 2)
        for i in range(3):
            own = slice(i * c, (i + 1) * c)
            out[:, own, own] = mats[:, i, :c, :c]
            out[:, own, 3 * c:] = mats[:, i, :c, c:] @ maps[i]
            out[:, 3 * c:, own] = out[:, own, 3 * c:].swapaxes(1, 2)
        # sum Z_i^T K_i Z_i, with no product of the stack's size held besides
        out[:, 3 * c:, 3 * c:] = np.einsum("ian,piab,ibm->pnm", maps, mats[:, :, c:, c:], maps)
        mats = out
    return mats
