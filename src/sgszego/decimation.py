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

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .laplacian import apply_neg_laplacian, level_graph
from .topology import cell_embedding, interior_count, level_topology

FORBIDDEN_GAMMAS = (2.0, 5.0, 6.0)

SERIES_TWO = "two"
SERIES_FIVE = "five"
SERIES_SIX = "six"

_BIRTH_GAMMA = {SERIES_TWO: 2.0, SERIES_FIVE: 5.0, SERIES_SIX: 6.0}


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
    if series == SERIES_SIX:
        return (3 ** birth - 3) // 2
    raise ValueError(f"unknown series {series!r}")


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


def make_descriptor(series, birth, signs, k_max=40):
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
    lam = 1.5 * (5.0 ** k_max) * _continue(gammas[-1], k_max - birth - len(signs))
    return EigenvalueDescriptor(
        series=series,
        birth=birth,
        signs=tuple(signs),
        fixation=_fixation(birth, effective_signs),
        gammas=tuple(gammas),
        lam=lam,
        multiplicity=series_multiplicity(series, birth),
    )


def renormalized_lambda(desc, k_max=40):
    """(3/2) * 5^k_max * gamma_{k_max} continuing with all signs -1."""
    if k_max < desc.level:
        raise ValueError("k_max precedes the descriptor's enumeration level")
    return 1.5 * (5.0 ** k_max) * desc.gamma_at(k_max)


@dataclass(frozen=True)
class SpectrumTable:
    level: int
    entries: tuple  # EigenvalueDescriptor, sorted by lam ascending

    @property
    def total_multiplicity(self):
        return sum(d.multiplicity for d in self.entries)


def enumerate_spectrum(m):
    """All Dirichlet eigenvalues of -Delta_m with series/birth/sign encoding.

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


@lru_cache(maxsize=None)
def _extension_maps(k):
    """Index arrays for extending a function from V_{k-1} to V_k.

    Returns (parent_corner, child_corner, child_mid): each (3^(k-1), 3); the
    mid column r holds the new vertex opposite corner r+1 of the parent cell.
    """
    # V_1 in topology order is q1, m12, m13, q2, m23, q3 (m_pq the midpoint of
    # edge pq): columns 0, 3, 5 are the corners, 4, 2, 1 the opposite midpoints
    embedding = cell_embedding(k, k - 1)
    return level_topology(k - 1).cell_vertices, embedding[:, [0, 3, 5]], embedding[:, [4, 2, 1]]


def extend_eigenfunction(values, k, gamma_k):
    """Extend eigenfunction values from V_{k-1} to V_k for eigenvalue gamma_k.

    `values` has leading axis over the V_{k-1} vertices (extra axes allowed).
    New vertex on edge (p, q) of a (k-1)-cell with opposite corner r gets
    ((4 - g)(u(p) + u(q)) + 2 u(r)) / ((2 - g)(5 - g)).
    """
    for bad in FORBIDDEN_GAMMAS:
        if abs(gamma_k - bad) < 1e-12:
            raise ValueError(f"forbidden extension eigenvalue gamma = {bad}")
    return _extend(np.asarray(values, dtype=float), k, gamma_k)


def _extend(values, k, gamma_k):
    """extend_eigenfunction without the forbidden-gamma check."""
    parent_corner, child_corner, child_mid = _extension_maps(k)
    out = np.zeros((level_topology(k).n_vertices,) + values.shape[1:])
    out[child_corner.ravel()] = values[parent_corner.ravel()]

    denom = (2.0 - gamma_k) * (5.0 - gamma_k)
    u = values[parent_corner]  # (cells, 3, ...)
    for r, (p, q) in zip((0, 1, 2), ((1, 2), (0, 2), (0, 1))):
        out[child_mid[:, r]] = ((4.0 - gamma_k) * (u[:, p] + u[:, q]) + 2.0 * u[:, r]) / denom
    return out


# smallest singular value of the 5-series junction matrix, relative to its
# largest, below which the three junction conditions count as dependent
JUNCTION_SV_MIN = 1e-8


@lru_cache(maxsize=None)
def _birth_space(series, j):
    """Eigenvectors of -Delta_j at the birth eigenvalue of the series, as
    full vectors on V_j with zero boundary values; read-only.

    Level 1: the 2-series is the constant on the three midpoints and the
    5-series their zero-sum vectors.  A 6-series at birth j is any function
    on V_{j-1} extended by gamma = 6: the new vertex on edge (p, q) opposite r
    gets (u_r - u_p - u_q) / 2, and 4 u + 2 u = 6 u holds at the old
    vertices.  A 5-series at birth j vanishes on V_{j-1}, so it is a copy of
    E5(j-1) in each 1-cell, kept where the two cells meeting at each point of
    V_1 outside V_0 have normal derivatives summing to zero.
    """
    if j == 1:
        full = np.zeros((level_topology(1).n_vertices, 2 if series == SERIES_FIVE else 1))
        midpoints = level_topology(1).interior_indices
        if series == SERIES_FIVE:
            full[midpoints] = np.linalg.svd(np.ones((1, 3)))[2][1:].T
        else:
            full[midpoints] = 1.0 / math.sqrt(3.0)
    elif series == SERIES_SIX:
        parent = level_topology(j - 1)
        full = _extend(np.eye(parent.n_vertices)[:, parent.interior_indices], j, 6.0)
    else:
        full = _five_series_birth(j)
    full.flags.writeable = False  # cached and shared by every caller
    return full


def _five_series_birth(j):
    """Orthonormal E5(j) for j >= 2 from copies of E5(j-1) in the 1-cells."""
    small = _birth_space(SERIES_FIVE, j - 1)
    small_topo = level_topology(j - 1)
    d = small.shape[1]
    embedding = cell_embedding(j, 1)
    # -Delta at the corners of V_{j-1}, where the values vanish: the negated
    # sum of the neighbours, i.e. the normal derivatives
    normal = apply_neg_laplacian(level_graph(j - 1), small)[small_topo.boundary_mask]
    copies = np.zeros((level_topology(j).n_vertices, 3 * d))
    junction = np.zeros((3, 3 * d))
    for cell in range(3):
        block = slice(cell * d, (cell + 1) * d)
        copies[embedding[cell], block] = small
        for corner in range(3):
            # the midpoint of edge q_a q_b is F_a(q_b) = F_b(q_a): row a + b - 1
            if corner != cell:
                junction[cell + corner - 1, block] = normal[corner]
    _, sv, vh = np.linalg.svd(junction)
    if sv[-1] < JUNCTION_SV_MIN * sv[0]:
        raise AssertionError(f"5-series junction conditions at birth {j} are dependent")
    return copies @ vh[3:].T


def birth_eigenvectors(desc):
    """Eigenvectors of -Delta_j at the birth eigenvalue, as full vectors on
    V_j with zero boundary values; columns linearly independent (orthonormal
    in plain coordinates for the 2- and 5-series), read-only."""
    full = _birth_space(desc.series, desc.birth)
    if full.shape[1] != desc.multiplicity:
        raise AssertionError(
            f"birth eigenspace of {desc.series} j={desc.birth} has dimension {full.shape[1]}, "
            f"expected {desc.multiplicity}"
        )
    return full


def eigenfunctions_at_level(desc, m_q):
    """Eigenspace of the descriptor sampled on V_{m_q}: the birth eigenspace
    followed by decimation extension."""
    if m_q < desc.birth:
        raise ValueError("sampling level precedes generation of birth")
    vals = birth_eigenvectors(desc)
    for k in range(desc.birth + 1, m_q + 1):
        vals = extend_eigenfunction(vals, k, desc.gamma_at(k))
    return vals


def export_spectrum_csv(table, path, header_lines=()):
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        wr = csv.writer(fh)
        wr.writerow(["series", "birth", "signs", "fixation", "gamma_m", "lambda", "multiplicity"])
        for d in table.entries:
            signs = "".join("+" if e == 1 else "-" for e in d.signs)
            wr.writerow(
                [d.series, d.birth, signs or "-", d.fixation, repr(d.gammas[-1]), repr(d.lam), d.multiplicity]
            )


__all__ = [
    "EigenvalueDescriptor",
    "SpectrumTable",
    "gamma_step",
    "make_descriptor",
    "enumerate_spectrum",
    "renormalized_lambda",
    "extend_eigenfunction",
    "birth_eigenvectors",
    "eigenfunctions_at_level",
    "export_spectrum_csv",
    "series_multiplicity",
    "SERIES_TWO",
    "SERIES_FIVE",
    "SERIES_SIX",
]
