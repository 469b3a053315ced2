"""Spectral decimation: exact enumeration of the Dirichlet spectrum of the
gasket Laplacian and fast eigenfunction construction by downward extension.

Each eigenvalue of -Delta_m is encoded by a series (gamma at birth is 2, 5 or
6), a generation of birth j, and a sign word epsilon_{j+1}..epsilon_m; the
level-k value is produced by

    gamma_k = (5 + epsilon_k * sqrt(25 - 4 gamma_{k-1})) / 2.

Beyond the enumeration level all signs are -1, which makes
(3/2) * 5^k * gamma_k converge to the renormalized eigenvalue.  A birth
eigenspace is a cell tree of the scale-1 remainders R(i), laid out by
`szego.tree_corners`, each built as its corner table from those of the
three 1-cells of V_1 (`remainder`), with no table of V_i; `schur` reads
the same columns as steps, with no table (`five_series_glue`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .laplacian import child_corners, midpoints
from .topology import interior_count

FORBIDDEN_GAMMAS = (2.0, 5.0, 6.0)

SERIES_TWO = "two"
SERIES_FIVE = "five"
SERIES_SIX = "six"

_BIRTH_GAMMA = {SERIES_TWO: 2.0, SERIES_FIVE: 5.0, SERIES_SIX: 6.0}

# lam is (3/2) 5^k gamma_k at k = max(2 LAMBDA_TAIL, level + LAMBDA_TAIL): each
# -1 step past the sign word divides gamma by about 5, so 5^k gamma_k has settled
LAMBDA_TAIL = 20


def gamma_step(gamma_prev, sign):
    """One decimation step, elementwise over arrays; sign is +1 or -1.

    The -1 branch uses the rationalized form 2 g / (5 + sqrt(25 - 4 g)),
    which avoids catastrophic cancellation as gamma tends to zero.
    """
    gamma_prev = np.asarray(gamma_prev, dtype=float)
    total = np.asarray(-4.0 * gamma_prev)
    total += 25.0  # the discriminant
    if np.any(total < 0.0):
        raise ValueError("gamma exceeds 25/4, discriminant negative")
    np.sqrt(total, out=total)
    total += 5.0
    minus = np.equal(sign, -1)
    # in place, and each entry computes the branch it takes alone
    out = np.empty(np.broadcast_shapes(total.shape, minus.shape))
    np.multiply(total, 0.5, out=out, where=~minus)
    np.divide(2.0 * gamma_prev, total, out=out, where=minus)
    return out[()]


def _continue(gamma, steps):
    """gamma after `steps` decimation steps past the stored sign words."""
    if not steps:
        return gamma
    # a gamma of exactly 6 only occurs at a 6-series birth, where the next
    # sign is forced to +1; every other continuation sign is -1, and past
    # the first step every gamma is below 5/2, so the rest is the -1 branch
    # of `gamma_step`, its operations in its order, in place
    gamma = gamma_step(gamma, np.where(gamma == 6.0, 1, -1))
    total = np.empty_like(gamma)
    for _ in range(steps - 1):
        np.multiply(gamma, -4.0, out=total)
        total += 25.0
        np.sqrt(total, out=total)
        total += 5.0
        gamma *= 2.0
        gamma /= total
    return gamma


def series_multiplicity(series, birth):
    if series == SERIES_TWO:
        return 1
    if series == SERIES_FIVE:
        return (3 ** (birth - 1) + 3) // 2
    return (3 ** birth - 3) // 2  # the 6-series


@dataclass(frozen=True, eq=False)
class BirthGroup:
    """The G eigenvalues of -Delta_level of one series born at one
    generation, one per sign word: one birth space extended by G gamma
    sequences.  The arrays hold a row per word; those `make_groups` builds
    are read-only."""

    series: str
    birth: int
    multiplicity: int  # of each eigenvalue of the group
    signs: np.ndarray  # (G, level - birth): epsilon_{birth+1} .. epsilon_level
    gammas: np.ndarray  # (G, level - birth + 1): gamma_birth .. gamma_level
    lam: np.ndarray  # (G,): renormalized limits (3/2) lim 5^k gamma_k
    fixation: np.ndarray  # (G,): the level after the last +1 sign

    @property
    def level(self):
        return self.birth + self.signs.shape[1]

    def __len__(self):
        return len(self.lam)

    def gamma(self, k):
        """gamma_k of every word for any k >= birth (`gammas_through`)."""
        return self.gammas_through(k)[:, -1]

    def gammas_through(self, k):
        """(G, k - birth + 1): gamma_birth .. gamma_k of every word, in one
        pass; past the stored words all signs are -1 but the forced +1
        directly after a 6-series birth."""
        if k < self.birth:
            raise ValueError("level precedes generation of birth")
        columns = [self.gammas[:, :k - self.birth + 1]]
        for _ in range(k - self.level):
            columns.append(_continue(columns[-1][:, -1:], 1))
        return np.hstack(columns) if len(columns) > 1 else columns[0]


def make_groups(words):
    """The birth groups of (series, birth, signs) triples of one level in the
    order given, `signs` a (G, level - birth) array of sign words; a group's
    words come in lam order, stable over the order given, its arrays
    read-only.  The gammas take one elementwise step per level over every
    word, and lam one continuation with all signs -1 past the level.  Refuses
    a birth the series does not have (the 2-series is born only at 1, the
    5-series from 1 and the 6-series from 2) and a 6-series word whose first
    sign is not +1."""
    words = [(series, birth, np.asarray(signs, dtype=np.int8)) for series, birth, signs in words]
    for series, birth, signs in words:
        first = {SERIES_TWO: 1, SERIES_FIVE: 1, SERIES_SIX: 2}.get(series)
        if first is None or birth < first or (series == SERIES_TWO and birth > 1):
            raise ValueError(f"series {series!r} has no eigenvalue born at generation {birth}")
        if series == SERIES_SIX and signs.shape[1] and np.any(signs[:, 0] != 1):
            raise ValueError("6-series requires epsilon_{j+1} = +1")
    level = words[0][1] + words[0][2].shape[1]
    sizes = [len(signs) for _, _, signs in words]
    births = np.repeat([birth for _, birth, _ in words], sizes)
    # epsilon_k and gamma_k of every word in row k, a column per word; past
    # the level, for fixation, the forced +1 after a 6-series birth there
    steps = np.hstack([np.pad(signs.T, ((birth + 1, 1), (0, 0))) for _, birth, signs in words])
    steps[-1] = (births == level) & np.repeat([s == SERIES_SIX for s, *_ in words], sizes)
    table = np.zeros((level + 1, len(births)))
    table[births, np.arange(len(births))] = np.repeat([_BIRTH_GAMMA[s] for s, *_ in words], sizes)
    for k in range(2, level + 1):
        # a word not yet born steps from 0 to a value that is not kept
        np.copyto(table[k], gamma_step(table[k - 1], steps[k]), where=births < k)
    tail = LAMBDA_TAIL + max(LAMBDA_TAIL, level)
    lam = 1.5 * (5.0 ** tail) * _continue(table[level], tail - level)
    order = np.lexsort((lam, np.repeat(np.arange(len(words)), sizes)))
    for row in (*steps, *table, lam):  # a row at a time: no copy of a whole table
        row[:] = row[order]
    plus = steps == 1
    fixation = np.where(plus.any(axis=0), level + 2 - np.argmax(plus[::-1], axis=0), births + 1)
    for values in (steps, table, lam, fixation):
        values.flags.writeable = False  # shared by every slice of a group
    bounds = np.cumsum(sizes)[:-1]
    parts = zip(*(np.split(values, bounds, axis=-1) for values in (steps, table, lam, fixation)))
    return [BirthGroup(series, birth, series_multiplicity(series, birth), signs[birth + 1:-1].T,
                       gammas[birth:].T, lams, fixations)
            for (series, birth, _), (signs, gammas, lams, fixations) in zip(words, parts)]


@lru_cache(maxsize=None)
def enumerate_spectrum(m):
    """All Dirichlet eigenvalues of -Delta_m as a tuple of birth groups,
    cached: the groups in order of their smallest lam, and each group's words
    in lam order, stable over the order of
    itertools.product((-1, 1), repeat=m - j).

    Counts per birth: 2-series 2^(m-1); 5-series birth j has 2^(m-j) sign
    words; 6-series birth j has the first sign forced to +1, leaving
    2^(m-j-1) words for j < m and a single entry for j = m.
    """
    if m < 1:
        raise ValueError("level must be >= 1")
    # the sign words of length n in product order are the last n columns of
    # the first 2^n words of length m - 1; the 6-series keeps the second
    # half, whose first sign is +1
    bits = np.arange(2 ** (m - 1))[:, None] >> np.arange(m - 2, -1, -1) & 1
    signs = (2 * bits - 1).astype(np.int8)
    words = [(SERIES_TWO, 1, signs)]
    words += [(SERIES_FIVE, j, signs[:2 ** (m - j), j - 1:]) for j in range(1, m + 1)]
    words += [(SERIES_SIX, j, signs[2 ** (m - j) // 2:2 ** (m - j), j - 1:])
              for j in range(2, m + 1)]
    groups = sorted(make_groups(words), key=lambda group: group.lam[0])
    if sum(len(group) * group.multiplicity for group in groups) != interior_count(m):
        raise AssertionError("spectrum multiplicity count mismatch")
    return tuple(groups)


def refuse_forbidden(gammas):
    """Raises a ValueError if any of the gammas lies within 1e-12 of 2, 5 or
    6, where decimation extension (`laplacian.midpoints`) is no eigenfunction
    extension; an extension checks all its gammas before its first level."""
    near = (np.abs(np.subtract.outer(gammas, FORBIDDEN_GAMMAS)) < 1e-12).reshape(-1, 3)
    if near.any():  # one pass over the gammas; the first of 2, 5 and 6 that occurs is named
        bad = FORBIDDEN_GAMMAS[near.any(axis=0).argmax()]
        raise ValueError(f"forbidden extension eigenvalue gamma = {bad}")


def _cholesky_basis(images):
    """Orthonormal columns of the span of `images` by the Cholesky factor of
    their Gram matrix: the one basis of N5 of the tables and the glue."""
    return images @ np.linalg.inv(np.linalg.cholesky(images.T @ images)).T


# smallest singular value of the 5-series junction matrix, relative to its
# largest, below which the three junction conditions count as dependent
JUNCTION_SV_MIN = 1e-8


def _midpoint_table(values):
    """(3, 3, c): the corner table of the functions on V_1 that vanish on V_0
    and take `values` at m_12, m_13, m_23, opposite q_3, q_2, q_1; read-only."""
    table = child_corners(np.zeros((values.shape[1], 1, 3)), values.T[:, None, ::-1])
    table = np.ascontiguousarray(table.transpose(1, 2, 0))
    table.flags.writeable = False
    return table


def normal_derivatives(table):
    """-Delta at q_1, q_2, q_3, one row each, of the functions of a corner
    table (3^i, 3, c) that vanish there: minus the sum of the other two
    corners of the one i-cell at q_c, c c ... c, of rank c (3^i - 1) / 2."""
    cells = table[[0, (len(table) - 1) // 2, len(table) - 1]]
    pairs = cells[np.arange(3)[:, None], [[1, 2], [0, 2], [0, 1]]]
    return -(pairs[:, 0] + pairs[:, 1])


def junction_nullspace(normal):
    """Orthonormal coefficients of copies of q functions in the three
    1-cells, q per cell in rank order, under which the normal derivatives of
    the two cells meeting at each midpoint of V_1 sum to zero.

    `normal` holds the functions' normal derivatives at q_1, q_2, q_3, one
    row each.  The 3 x 3q junction matrix has a row per midpoint, m_12,
    m_13, m_23, to which each corner of a 1-cell at it adds; its nullspace
    comes from an SVD, which also checks that the rows are independent.
    """
    rows = child_corners(np.full((1, 3), 3), np.array([[2, 1, 0]]))  # row 3: q_1, q_2, q_3
    junction = np.zeros((4, 3, normal.shape[-1]))
    junction[rows, np.arange(3)[:, None]] = normal
    _, sv, vh = np.linalg.svd(junction[:3].reshape(3, -1))
    if sv[-1] < JUNCTION_SV_MIN * sv[0]:
        raise AssertionError("5-series junction conditions are dependent")
    return vh[3:].T


@lru_cache(maxsize=None)
def five_series_corners(i):
    """R5(i), the part of E5(i) orthogonal to the copies of kept(E5(i - 1))
    in the three 1-cells, as its corner table; read-only.  kept(E) is the
    subspace of E whose normal derivatives vanish.  Columns 0 and 1 are
    N5(i), the complement of kept(E5(i)) in E5(i), and column 2, from i = 2
    on, is K5(i).  R5(1) = N5(1) = E5(1), the zero-sum vectors on the
    midpoints of V_1.

    E5(i) is a copy of E5(i - 1) in each 1-cell where the normal
    derivatives of the two cells at each midpoint of V_1 cancel, as those
    of kept(E5(i - 1)) do, so R5(i) is the junction nullspace of the copies
    of N5(i - 1), the 1-cells' tables one after the other.  The normal
    derivatives map R5(i) onto a plane, spanned by the adjoint images of q_1
    and q_2: N5(i) is their span, orthonormalized by a Cholesky factor, and
    K5(i) their cross product, signed by its first entry of at least half
    its largest magnitude, which is first in vertex order too.  Only the
    span of the SVD's output enters, so the columns do not depend on
    rounding.  N5 and K5 fill one output table: the peak is twice its size.
    """
    if i == 1:
        return five_series_glue(1)
    small = five_series_corners(i - 1)[..., :2]
    null = junction_nullspace(normal_derivatives(small)).reshape(3, 2, 3)
    span = (small.reshape(-1, 2) @ null).reshape(-1, 3)
    images = normal_derivatives(span.reshape(3**i, 3, 3))[:2].T
    kept = np.cross(images[:, 0], images[:, 1])
    values = np.empty((3**i, 3, 3))
    np.matmul(span, _cholesky_basis(images), out=values.reshape(-1, 3)[:, :2])
    kept = np.matmul(span, kept / np.linalg.norm(kept), out=values.reshape(-1, 3)[:, 2])  # a view
    del span  # before K5 is signed
    size = np.abs(kept)
    kept *= np.sign(kept[np.argmax(size >= 0.5 * size.max())])
    values.flags.writeable = False  # cached and shared by every caller
    return values


def five_series_glue(i):
    """R5(i) from the glue alone, read-only: at i = 1 the corner table of
    N5(1) = E5(1), (3, 3, 2), of `five_series_corners(1)`; at every i >= 2
    one (3, 2, 3) table, the same object, of N5(i) and K5(i) (column 2) as
    coefficients of the copies of N5(i - 1) in the 1-cells, cell by cell.

    This is `five_series_corners` on the coefficients: the normal derivative
    of the junction nullspace at q_c is that of its copy in cell c, so the
    glue needs those of N5(i - 1) alone.  In the Cholesky basis they are the
    lower triangular factor at q_1, q_2, and sum to zero; by the gasket's
    symmetry they are (3/5)^((i - 1)/2) times an isometry, which is then the
    same at every level, and so is the glue, built once from N5(1).  K5 is
    signed to make its first coefficient of at least half their largest
    magnitude negative, the sign of the table's (at every i = 2 .. 15)."""
    return _five_series_glue(i > 1)


@lru_cache(maxsize=None)
def _five_series_glue(above):
    """`five_series_glue` at i = 1 (above False) and at every i >= 2."""
    if not above:
        span = _midpoint_table(np.linalg.svd(np.ones((1, 3)))[2][1:].T)
        out = span @ _cholesky_basis(normal_derivatives(span)[:2].T)
    else:
        below = normal_derivatives(_five_series_glue(False))
        null = junction_nullspace(below).reshape(3, 2, 3)
        images = np.einsum("cq,cqr->cr", below, null)[:2].T  # of the nullspace's columns
        kept = np.cross(images[:, 0], images[:, 1])
        out = null @ np.column_stack([_cholesky_basis(images), kept / np.linalg.norm(kept)])
        k5 = out[..., 2]  # a view
        size = np.abs(k5).ravel()
        k5 *= -np.sign(k5.flat[np.argmax(size >= 0.5 * size.max())])
    out.flags.writeable = False  # cached and shared by every caller
    return out


# |gamma| beyond which the gamma = -6 family is clamped: (2 - g)(5 - g) would
# overflow at j = 11, and g itself at j = 12, while the values such a gamma
# gives its new vertices are below 1e-100 of their cell's corner values
GAMMA_CLAMP = 1e100


def six_series_chain(j):
    """gamma at the levels 2 .. j of the extension from V_1 that builds
    R6(j), j >= 2: g_{j-2}, ..., g_1, with g_1 = -6 and g_{d+1} = g_d (5 -
    g_d) clamped at -GAMMA_CLAMP, and then 6."""
    gammas = [-6.0]
    while len(gammas) < j - 2:
        gammas.append(max(gammas[-1] * (5.0 - gammas[-1]), -GAMMA_CLAMP))
    return [*reversed(gammas[:j - 2]), 6.0]


@lru_cache(maxsize=None)
def six_series_corners(j):
    """R6(j), the part of E6(j) orthogonal to the copies of E6(j - 1) in
    the three 1-cells, for j >= 2 (R6(2) is all of E6(2)), as its corner
    table, a column per midpoint of V_1; cached and read-only.

    G = (6 I + L_{j-1}) / 4 is the Gram matrix of the gamma = 6 extensions
    of the interior unit vectors of V_{j-1}, so R6(j) is the extension of
    G^-1 E, E the midpoint unit vectors.  Inside each 1-cell G^-1 E solves
    -Delta_{j-1} v = -6 v, so it is decimation extension from V_1 with
    gamma g_{j-k} at level k, g_1 = -6 and g_{d+1} = g_d (5 - g_d).
    G^-1 E = X S with X the extension of E, so Y = Ext(X) has Gram matrix
    X^T G X = (E^T G^-1 E)^-1 = S, and R6(j) is Y chol(S^-1).  The three
    columns are extended as one (3, cells, 3) corner table.  Every vertex of
    V_j but q_1, q_2, q_3 lies in two j-cells, so S is half the corner
    products summed over the table, each entry pairwise along a contiguous
    axis (as one matrix product, it left the columns 7.8e-16 off the dense
    solve).
    """
    table = _midpoint_table(np.eye(3)).transpose(2, 0, 1)
    for gamma in six_series_chain(j):
        table = child_corners(table, midpoints(table, gamma))
    columns = table.reshape(3, -1)
    gram = np.array([[0.5 * np.sum(a * b) for b in columns] for a in columns])
    values = (columns.T @ np.linalg.cholesky(np.linalg.inv(gram))).reshape(3**j, 3, 3)
    values.flags.writeable = False  # cached and shared by every caller
    return values


def remainder(series, i):
    """R(i), the scale-1 remainder of a series at generation i, as its
    corner table (3^i, 3, c): the columns at the three corners of every
    i-cell in rank order, orthonormal in plain coordinates on V_i;
    read-only, and cached for the 5- and 6-series, so every birth whose
    cell tree holds R(i) shares it.  The 2-series has R(1) alone, the
    constant on the midpoints."""
    if series == SERIES_TWO:
        return _midpoint_table(np.full((3, 1), 1.0 / math.sqrt(3.0)))
    return (six_series_corners if series == SERIES_SIX else five_series_corners)(i)
