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

from .laplacian import dirichlet_laplacian, extend_values
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


def extend_eigenfunction(values, k, gamma_k):
    """Extend eigenfunction values from V_{k-1} to V_k for eigenvalue gamma_k
    by `laplacian.extend_values`, refusing the forbidden gammas 2, 5 and 6.

    `values` has leading axis over the V_{k-1} vertices (extra axes allowed);
    `gamma_k` is a scalar or one gamma per slice of axis 1, and a forbidden
    gamma in any slice is refused.
    """
    for bad in FORBIDDEN_GAMMAS:
        if np.any(np.abs(np.asarray(gamma_k) - bad) < 1e-12):
            raise ValueError(f"forbidden extension eigenvalue gamma = {bad}")
    return extend_values(np.asarray(values, dtype=float), k, gamma_k)


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


def junction_nullspace(normal, scale):
    """Orthonormal coefficients of copies of q functions in every scale-cell,
    q per cell in address order, under which the normal derivatives of the
    two cells meeting at each interior vertex of V_scale sum to zero.

    `normal` holds the functions' normal derivatives at the corners q_1, q_2,
    q_3, one row per corner, or a stack of such (..., 3, q) with one answer
    per slice.  The junction matrix has one row per interior vertex of
    V_scale and is read off `cell_vertices`; its nullspace comes from an SVD,
    which also checks that the rows are independent.
    """
    topo = level_topology(scale)
    rows = interior_count(scale)
    junction = np.zeros(normal.shape[:-2] + (rows, 3**scale, normal.shape[-1]))
    cell, corner = np.nonzero(~topo.boundary_mask[topo.cell_vertices])
    row = topo.interior_row[topo.cell_vertices[cell, corner]]
    junction[..., row, cell, :] = normal[..., corner, :]
    _, sv, vh = np.linalg.svd(junction.reshape(junction.shape[:-3] + (rows, -1)))
    if np.any(sv[..., -1] < JUNCTION_SV_MIN * sv[..., 0]):
        raise AssertionError(f"5-series junction conditions at scale {scale} are dependent")
    return np.swapaxes(vh[..., rows:, :], -1, -2)


@lru_cache(maxsize=None)
def _birth_space(series, j):
    """Eigenvectors of -Delta_j at the birth eigenvalue of the series, as
    full vectors on V_j with zero boundary values, orthonormal in plain
    coordinates; read-only.

    Level 1: the 2-series is the constant on the three midpoints and the
    5-series their zero-sum vectors.  A 6-series at birth j is any function
    on V_{j-1} extended by gamma = 6: the new vertex on edge (p, q) opposite r
    gets (u_r - u_p - u_q) / 2, and 4 u + 2 u = 6 u holds at the old
    vertices.  The extensions of the interior unit vectors of V_{j-1} are
    independent, because their V_{j-1} rows are the identity, and their Gram
    matrix is known, so its Cholesky factor makes them orthonormal
    (`_six_series_birth`).  A 5-series at birth j vanishes on V_{j-1}, so it
    is a copy of E5(j-1) in each 1-cell, kept where the two cells meeting at
    each point of V_1 outside V_0 have normal derivatives summing to zero.
    """
    if j == 1:
        full = np.zeros((level_topology(1).n_vertices, 2 if series == SERIES_FIVE else 1))
        midpoints = level_topology(1).interior_indices
        if series == SERIES_FIVE:
            full[midpoints] = np.linalg.svd(np.ones((1, 3)))[2][1:].T
        else:
            full[midpoints] = 1.0 / math.sqrt(3.0)
    elif series == SERIES_SIX:
        full = _six_series_birth(j)
    else:
        full = _five_series_birth(j)
    full.flags.writeable = False  # cached and shared by every caller
    return full


def _six_series_gram(j):
    """(6 I + L) / 4 with L = -Delta_{j-1} the Dirichlet Laplacian on the
    interior of V_{j-1}: the Gram matrix of the gamma = 6 extensions to V_j
    of the interior unit vectors of V_{j-1}.

    The three new vertices of a cell take (u_r - u_p - u_q) / 2, so together
    they contribute (3 sum_corners u_c v_c - sum_edges (u_p v_q + u_q v_p)) / 4,
    and every interior vertex lies in two cells and every edge in one; the
    old vertices add the identity.  Its spectrum lies in (1.5, 3).
    """
    gram = dirichlet_laplacian(j - 1)
    gram[np.diag_indices_from(gram)] += 6.0
    gram /= 4.0
    return gram


def _six_series_birth(j):
    """Orthonormal E6(j) for j >= 2: the gamma = 6 extensions of the interior
    unit vectors of V_{j-1}, times R^-T, where R R^T = `_six_series_gram(j)`.
    The Gram matrix is well conditioned, so the Cholesky factor is as accurate
    as a QR of the n x d extensions, which it replaces: the columns are that
    QR's Q up to sign, at O(d^3) cost on the small grid.
    """
    parent = level_topology(j - 1)
    coeffs = np.zeros((parent.n_vertices, interior_count(j - 1)))
    coeffs[parent.interior_indices] = _lower_inverse(np.linalg.cholesky(_six_series_gram(j))).T
    return extend_values(coeffs, j, 6.0)


# |gamma| beyond which the gamma = -6 family is clamped: (2 - g)(5 - g) would
# overflow at j = 11, and g itself at j = 12, while the values such a gamma
# gives its new vertices are below 1e-100 of their cell's corner values
GAMMA_CLAMP = 1e100


@lru_cache(maxsize=None)
def six_series_remainder(j):
    """The part of E6(j) orthogonal to the copies of E6(j - 1) in the three
    1-cells, for j >= 3: Y chol(S^-1) on V_j, S = Y^T Y, where Y is the
    gamma = 6 extension from V_{j-1} of the functions on V_{j-1} that are the
    unit vectors of the three midpoints of V_1 and, inside each 1-cell,
    solve (6 I + L_{j-1}) v = 0.  Its three columns are orthonormal in plain
    coordinates, one per midpoint; read-only.

    The copies are the extensions of the functions on V_{j-1} that vanish on
    V_1, and G = (6 I + L_{j-1}) / 4 (`_six_series_gram(j)`) is the Gram
    matrix of the extensions, so the remainder is the extension of G^-1 E,
    E the midpoint unit vectors.  Inside each 1-cell G^-1 E solves
    -Delta_{j-1} v = -6 v, an eigenfunction equation, so it is decimation
    extension from V_1 with gamma g_{j-k} at level k, where g_1 = -6 and
    g_{d+1} = g_d (5 - g_d), none of them 2, 5 or 6.  G^-1 E = X S with
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


def _lower_inverse(r):
    """Inverse of the lower-triangular r by 2 x 2 block recursion, in matrix
    products: about n^3 / 3 flops against the 2 n^3 of `np.linalg.inv`."""
    n = r.shape[0]
    if n <= 64:
        return np.tril(np.linalg.inv(r))
    h = n // 2
    head, tail = _lower_inverse(r[:h, :h]), _lower_inverse(r[h:, h:])
    out = np.zeros_like(r)
    out[:h, :h] = head
    out[h:, h:] = tail
    out[h:, :h] = -tail @ (r[h:, :h] @ head)
    return out


def _five_series_birth(j):
    """Orthonormal E5(j) for j >= 2 from copies of E5(j-1) in the 1-cells,
    glued at the three junctions (`junction_nullspace` at scale 1)."""
    small = _birth_space(SERIES_FIVE, j - 1)
    normal = corner_normal_derivatives(small[level_topology(j - 1).interior_indices], j - 1)
    copies = np.zeros((level_topology(j).n_vertices, 3, small.shape[1]))
    copies[cell_embedding(j, 1), np.arange(3)[:, None]] = small
    return copies.reshape(len(copies), -1) @ junction_nullspace(normal, 1)


def birth_eigenvectors(desc):
    """Eigenvectors of -Delta_j at the birth eigenvalue, as full vectors on
    V_j with zero boundary values, orthonormal in plain coordinates for every
    series; read-only."""
    full = _birth_space(desc.series, desc.birth)
    if full.shape[1] != desc.multiplicity:
        raise AssertionError(
            f"birth eigenspace of {desc.series} j={desc.birth} has dimension {full.shape[1]}, "
            f"expected {desc.multiplicity}"
        )
    return full


def birth_groups(descriptors):
    """The descriptors grouped by (series, birth), each group in the order
    given and the groups in order of first appearance.  A group's eigenspaces
    are one birth space extended by different gamma sequences."""
    groups = {}
    for desc in descriptors:
        groups.setdefault((desc.series, desc.birth), []).append(desc)
    return [tuple(group) for group in groups.values()]


def eigenfunctions_at_level(descs, m_q, vals=None, shift=0):
    """Eigenspaces of a birth group sampled on V_{m_q}, stacked (vertices of
    V_{m_q}, G, columns) over its G descriptors: the birth eigenspace, or the
    columns `vals` on V_birth inside it, followed by decimation extension
    with one gamma per descriptor.  With a shift s it is the eigenspaces of
    the same sign words born s generations earlier, whose gamma at level k is
    the group's gamma at k + s."""
    birth = descs[0].birth - shift
    if m_q < birth:
        raise ValueError("sampling level precedes generation of birth")
    if vals is None:
        vals = _birth_space(descs[0].series, birth) if shift else birth_eigenvectors(descs[0])
    vals = np.broadcast_to(vals[:, None], (len(vals), len(descs)) + vals.shape[1:])
    for k in range(birth + 1, m_q + 1):
        vals = extend_eigenfunction(vals, k, [desc.gamma_at(k + shift) for desc in descs])
    return vals
