"""Spectral decimation: exact enumeration of the Dirichlet spectrum of the
gasket Laplacian and fast eigenfunction construction by downward extension.

Each eigenvalue of -Delta_m is encoded by a series (gamma at birth is 2, 5 or
6), a generation of birth j, and a sign word epsilon_{j+1}..epsilon_m; the
level-k value is produced by

    gamma_k = (5 + epsilon_k * sqrt(25 - 4 gamma_{k-1})) / 2.

Beyond the enumeration level all signs are -1, which makes
(3/2) * 5^k * gamma_k converge to the renormalized eigenvalue.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .laplacian import extend_values
from .topology import cell_embedding, interior_count, level_topology

FORBIDDEN_GAMMAS = (2.0, 5.0, 6.0)

SERIES_TWO = "two"
SERIES_FIVE = "five"
SERIES_SIX = "six"

_BIRTH_GAMMA = {SERIES_TWO: 2.0, SERIES_FIVE: 5.0, SERIES_SIX: 6.0}

# lam is (3/2) 5^k gamma_k at k = max(2 LAMBDA_TAIL, level + LAMBDA_TAIL): each
# -1 step past the sign word divides gamma by about 5, so 5^k gamma_k has settled
LAMBDA_TAIL = 20


def gamma_step(gamma_prev, sign):
    """One decimation step; sign is +1 or -1.

    The -1 branch uses the rationalized form 2 g / (5 + sqrt(25 - 4 g)),
    which avoids catastrophic cancellation as gamma tends to zero.
    """
    disc = 25.0 - 4.0 * gamma_prev
    if disc < 0.0:
        raise ValueError("gamma exceeds 25/4, discriminant negative")
    root = math.sqrt(disc)
    if sign == -1:
        return 2.0 * gamma_prev / (5.0 + root)
    return 0.5 * (5.0 + root)


def series_multiplicity(series, birth):
    if series == SERIES_TWO:
        return 1
    if series == SERIES_FIVE:
        return (3 ** (birth - 1) + 3) // 2
    return (3 ** birth - 3) // 2  # the 6-series


def _fixation(birth, signs):
    """Level after the last +1 sign (all signs are -1 from there on, given
    the all-(-1) continuation beyond the enumeration level)."""
    last_plus = None
    for k, e in enumerate(signs):
        if e == 1:
            last_plus = birth + 1 + k
    return birth + 1 if last_plus is None else last_plus + 1


@dataclass(frozen=True)
class EigenvalueDescriptor:
    series: str
    birth: int
    signs: tuple  # epsilon_{birth+1} .. epsilon_m
    fixation: int
    gammas: tuple  # gamma_birth .. gamma_m
    lam: float  # renormalized limit (3/2) lim 5^k gamma_k
    multiplicity: int

    @property
    def level(self):
        return self.birth + len(self.signs)

    def gamma_at(self, k):
        """gamma_k for any k >= birth; signs beyond the stored word are -1,
        except the forced +1 step directly after a 6-series birth."""
        if k < self.birth:
            raise ValueError("level precedes generation of birth")
        if k <= self.level:
            return self.gammas[k - self.birth]
        return _continue(self.gammas[-1], k - self.level)


def _continue(gamma, steps):
    """gamma after `steps` decimation steps past the stored sign word."""
    # a gamma of exactly 6 only occurs at a 6-series birth, where the next
    # sign is forced to +1; every other continuation sign is -1
    for _ in range(steps):
        gamma = gamma_step(gamma, 1 if gamma == 6.0 else -1)
    return gamma


def make_descriptor(series, birth, signs):
    """Refuses a birth the series does not have: the 2-series is born only at
    generation 1, the 5-series from 1 on and the 6-series from 2 on."""
    first = {SERIES_TWO: 1, SERIES_FIVE: 1, SERIES_SIX: 2}.get(series)
    if first is None or birth < first or (series == SERIES_TWO and birth > 1):
        raise ValueError(f"series {series!r} has no eigenvalue born at generation {birth}")
    gamma = _BIRTH_GAMMA[series]
    gammas = [gamma]
    for e in signs:
        gamma = gamma_step(gamma, e)
        gammas.append(gamma)
    if series == SERIES_SIX and signs and signs[0] != 1:
        raise ValueError("6-series requires epsilon_{j+1} = +1")
    # the forced +1 after a 6-series birth counts toward fixation even when
    # the stored word is empty (birth at the enumeration level)
    effective_signs = signs if (signs or series != SERIES_SIX) else (1,)
    k = LAMBDA_TAIL + max(LAMBDA_TAIL, birth + len(signs))
    lam = 1.5 * (5.0 ** k) * _continue(gammas[-1], k - birth - len(signs))
    return EigenvalueDescriptor(
        series=series,
        birth=birth,
        signs=tuple(signs),
        fixation=_fixation(birth, effective_signs),
        gammas=tuple(gammas),
        lam=lam,
        multiplicity=series_multiplicity(series, birth),
    )


@dataclass(frozen=True)
class SpectrumTable:
    level: int
    entries: tuple  # EigenvalueDescriptor, sorted by lam ascending

    @property
    def total_multiplicity(self):
        return sum(d.multiplicity for d in self.entries)


@lru_cache(maxsize=None)
def enumerate_spectrum(m):
    """All Dirichlet eigenvalues of -Delta_m with series/birth/sign encoding;
    cached, as the table is a frozen tuple of frozen descriptors.

    Counts per birth: 2-series 2^(m-1); 5-series birth j has 2^(m-j) sign
    words; 6-series birth j has the first sign forced to +1, leaving
    2^(m-j-1) words for j < m and a single entry for j = m.
    """
    if m < 1:
        raise ValueError("level must be >= 1")
    entries = []
    for signs in product((-1, 1), repeat=m - 1):
        entries.append(make_descriptor(SERIES_TWO, 1, signs))
    for j in range(1, m + 1):
        for signs in product((-1, 1), repeat=m - j):
            entries.append(make_descriptor(SERIES_FIVE, j, signs))
    for j in range(2, m + 1):
        for tail in product((-1, 1), repeat=max(m - j - 1, 0)):
            signs = ((1,) + tail) if j < m else ()
            entries.append(make_descriptor(SERIES_SIX, j, signs))
    entries.sort(key=lambda d: d.lam)
    table = SpectrumTable(level=m, entries=tuple(entries))
    if table.total_multiplicity != interior_count(m):
        raise AssertionError("spectrum multiplicity count mismatch")
    return table


def extend_eigenfunction(values, k, gamma_k, interior=False):
    """Extend eigenfunction values from V_{k-1} to V_k for eigenvalue gamma_k
    by `laplacian.extend_values`, refusing the forbidden gammas 2, 5 and 6;
    with `interior`, only the interior rows of V_k.

    `values` has leading axis over the V_{k-1} vertices (extra axes allowed);
    `gamma_k` is a scalar or one gamma per slice of axis 1, and a forbidden
    gamma in any slice is refused.
    """
    for bad in FORBIDDEN_GAMMAS:
        if np.any(np.abs(np.asarray(gamma_k) - bad) < 1e-12):
            raise ValueError(f"forbidden extension eigenvalue gamma = {bad}")
    return extend_values(np.asarray(values, dtype=float), k, gamma_k, interior)


# smallest singular value of the 5-series junction matrix, relative to its
# largest, below which the three junction conditions count as dependent
JUNCTION_SV_MIN = 1e-8


def corner_normal_derivatives(values, level):
    """-Delta at the three corners of V_level (in corner order) of functions
    that vanish there, given by their values on the interior of V_level, one
    column each, rows on the second-last axis of a stack: the negated sum of
    each corner's two neighbours, i.e. the normal derivatives.  Corner c lies
    in the one level-cell c c ... c, and its neighbours are that cell's other
    two corners."""
    topo = level_topology(level)
    cells = topo.cell_vertices[[0, (3**level - 1) // 2, 3**level - 1]]
    neighbours = cells[np.arange(3)[:, None], [[1, 2], [0, 2], [0, 1]]]
    pos = topo.interior_row[neighbours]
    return -(values[..., pos[:, 0], :] + values[..., pos[:, 1], :])


def junction_nullspace(normal):
    """Orthonormal coefficients of copies of q functions in the three
    1-cells, q per cell in rank order, under which the normal derivatives of
    the two cells meeting at each midpoint of V_1 sum to zero.

    `normal` holds the functions' normal derivatives at the corners q_1, q_2,
    q_3, one row per corner.  The 3 x 3q junction matrix has one row per
    midpoint and is read off `cell_vertices`; its nullspace comes from an SVD,
    which also checks that the rows are independent.
    """
    topo = level_topology(1)
    junction = np.zeros((3, 3, normal.shape[-1]))
    cell, corner = np.nonzero(~topo.boundary_mask[topo.cell_vertices])
    junction[topo.interior_row[topo.cell_vertices[cell, corner]], cell] = normal[corner]
    _, sv, vh = np.linalg.svd(junction.reshape(3, -1))
    if sv[-1] < JUNCTION_SV_MIN * sv[0]:
        raise AssertionError("5-series junction conditions are dependent")
    return vh[3:].T


@lru_cache(maxsize=None)
def _birth_space(series):
    """The level-1 birth space of the 2- or the 5-series as full vectors on
    V_1, orthonormal in plain coordinates: the constant on the three
    midpoints, or their zero-sum vectors; read-only.  Every later birth space
    is a cell tree of scale-1 remainders (`cell_tree`)."""
    full = np.zeros((level_topology(1).n_vertices, 2 if series == SERIES_FIVE else 1))
    midpoints = level_topology(1).interior_indices
    if series == SERIES_FIVE:
        full[midpoints] = np.linalg.svd(np.ones((1, 3)))[2][1:].T
    else:
        full[midpoints] = 1.0 / math.sqrt(3.0)
    full.flags.writeable = False  # cached and shared by every caller
    return full


@lru_cache(maxsize=None)
def five_series_remainder(i):
    """R5(i), the part of E5(i) orthogonal to the copies of kept(E5(i - 1))
    in the three 1-cells, as full vectors on V_i, orthonormal in plain
    coordinates; read-only.  kept(E) is the subspace of E whose normal
    derivatives vanish at the corners of V_0.  Columns 0 and 1 are N5(i),
    the complement of kept(E5(i)) in E5(i), and column 2, from i = 2 on, is
    K5(i), the one kept direction of R5(i).  R5(1) = N5(1) = E5(1).

    E5(i) vanishes on V_{i-1}, so it is a copy of E5(i - 1) in each 1-cell,
    kept where the normal derivatives of the two cells meeting at each
    midpoint of V_1 cancel.  Copies of kept(E5(i - 1)) meet that condition,
    so R5(i) is the junction nullspace of the copies of N5(i - 1), a 3 x 6
    matrix.  The normal derivatives at the corners of V_0 vanish on the
    copies and map R5(i) onto a plane, which the adjoint images of corners 1
    and 2 span.  N5(i) is their span, orthonormalized by a Cholesky factor,
    and K5(i) their cross product, signed so that its first entry of at least
    half its largest magnitude is positive.  Only the span of the SVD's
    output enters, so the columns do not depend on rounding.
    """
    if i == 1:
        span = _birth_space(SERIES_FIVE)
    else:
        small = five_series_remainder(i - 1)[:, :2]
        normal = corner_normal_derivatives(small[level_topology(i - 1).interior_indices], i - 1)
        copies = np.zeros((level_topology(i).n_vertices, 3, 2))
        copies[cell_embedding(i, 1), np.arange(3)[:, None]] = small
        span = copies.reshape(len(copies), 6) @ junction_nullspace(normal)
    images = corner_normal_derivatives(span[level_topology(i).interior_indices], i)[:2].T
    values = span @ (images @ np.linalg.inv(np.linalg.cholesky(images.T @ images)).T)
    if i > 1:
        kept = np.cross(images[:, 0], images[:, 1])
        kept = span @ (kept / np.linalg.norm(kept))
        size = np.abs(kept)
        kept *= np.sign(kept[np.argmax(size >= 0.5 * size.max())])
        values = np.column_stack([values, kept])
    values.flags.writeable = False  # cached and shared by every caller
    return values


# |gamma| beyond which the gamma = -6 family is clamped: (2 - g)(5 - g) would
# overflow at j = 11, and g itself at j = 12, while the values such a gamma
# gives its new vertices are below 1e-100 of their cell's corner values
GAMMA_CLAMP = 1e100


@lru_cache(maxsize=None)
def six_series_remainder(j):
    """R6(j), the part of E6(j) orthogonal to the copies of E6(j - 1) in
    the three 1-cells, for j >= 2 (R6(2) is all of E6(2)): Y chol(S^-1) on
    V_j, S = Y^T Y, where Y is the gamma = 6 extension from V_{j-1} of the
    functions on V_{j-1} that are the unit vectors of the three midpoints of
    V_1 and, inside each 1-cell, solve (6 I + L_{j-1}) v = 0.  Its three
    columns are orthonormal in plain coordinates, one per midpoint;
    read-only.

    The copies are the extensions of the functions on V_{j-1} that vanish on
    V_1, and G = (6 I + L_{j-1}) / 4 is the Gram matrix of the gamma = 6
    extensions of the interior unit vectors of V_{j-1}, so the remainder is
    the extension of G^-1 E, E the midpoint unit vectors.  Inside each
    1-cell G^-1 E solves -Delta_{j-1} v = -6 v, an eigenfunction equation,
    so it is decimation extension from V_1 with gamma g_{j-k} at level k,
    where g_1 = -6 and g_{d+1} = g_d (5 - g_d), none of them 2, 5 or 6.  G^-1 E = X S with
    X the extension of the unit vectors, so Y = Ext(X) has Gram matrix
    X^T G X = (E^T G^-1 E)^-1 = S, and Y chol(S^-1) is Ext(G^-1 E) R^-T
    with R R^T = E^T G^-1 E: O(3^j) work and no matrix beyond 3 x 3.
    """
    outer = level_topology(1)
    values = np.zeros((outer.n_vertices, 3))
    values[outer.interior_indices] = np.eye(3)
    gammas = [-6.0]
    while len(gammas) < j - 2:
        gammas.append(max(gammas[-1] * (5.0 - gammas[-1]), -GAMMA_CLAMP))
    for k, gamma in zip(range(2, j), reversed(gammas)):
        values = extend_values(values, k, gamma)
    values = extend_values(values, j, 6.0)
    values = values @ np.linalg.cholesky(np.linalg.inv(values.T @ values))
    values.flags.writeable = False  # cached and shared by every caller
    return values


def cell_tree(series, birth):
    """(depth, columns on V_{birth - depth}) of the cell tree of the birth
    space of a series, root first: the scale-1 remainder R(birth) at depth 0
    and the kept part of R(birth - k) at each depth k = 1 .. birth - 2, all
    three columns of a 6-series remainder and the one column K5 of a
    5-series one.  Each depth's columns are copied into every cell of that
    depth; copies in different cells have disjoint supports, so the tree is
    orthonormal in plain coordinates.  The 2-series is the root alone.
    """
    if series == SERIES_TWO:
        return ((0, _birth_space(SERIES_TWO)),)
    remainder, kept = ((six_series_remainder, slice(None)) if series == SERIES_SIX
                       else (five_series_remainder, slice(2, None)))
    return ((0, remainder(birth)),) + tuple((k, remainder(birth - k)[:, kept])
                                            for k in range(1, birth - 1))


def birth_groups(descriptors):
    """The descriptors grouped by (series, birth), each group in the order
    given and the groups in order of first appearance.  A group's eigenspaces
    are one birth space extended by different gamma sequences."""
    groups = {}
    for desc in descriptors:
        groups.setdefault((desc.series, desc.birth), []).append(desc)
    return [tuple(group) for group in groups.values()]


def eigenfunctions_at_level(descs, m_q, vals, shift=0):
    """Eigenspaces of a birth group sampled on the interior of V_{m_q},
    stacked (interior vertices of V_{m_q}, G, columns) over its G
    descriptors: the columns `vals` on V_birth of the birth eigenspace, such
    as a depth of its `cell_tree`, followed by decimation extension with one
    gamma per descriptor, whose last step writes the interior rows alone.
    With a shift s it is the eigenspaces of the same sign words born s
    generations earlier, whose gamma at level k is the group's gamma at
    k + s."""
    birth = descs[0].birth - shift
    if m_q < birth:
        raise ValueError("sampling level precedes generation of birth")
    vals = np.broadcast_to(vals[:, None], (len(vals), len(descs)) + vals.shape[1:])
    if m_q == birth:
        return vals[level_topology(m_q).interior_indices]
    for k in range(birth + 1, m_q + 1):
        vals = extend_eigenfunction(vals, k, [desc.gamma_at(k + shift) for desc in descs],
                                    interior=k == m_q)
    return vals
