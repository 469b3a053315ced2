"""Eigenspace bases of the gasket Laplacian kept as cell trees, the
multiplication operators compressed onto them, their log-determinants,
spectral functionals, and the convergence and equidistribution experiments
built on them.  An operator keeps each birth group's cell kernels, each
word's kernels divided by the one norm of its columns, from its kernel of
f = 1 (`gram_factors`).  Its log-determinant is one Schur recursion up the
cells from them (`schur`), and its eigenvalues are those of the matrices
that the same steps build with their columns kept (`group_matrices`), no
table of the tree read; the dense columns of a basis (`basis_columns`) are
built from the corner tables that the same steps give
(`schur.remainder_table`) on the vertex rows of V_{m_q}, the one layout of
every full vector of the package."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decimation import (SERIES_FIVE, SERIES_SIX, SERIES_TWO, enumerate_spectrum, make_groups,
                         refuse_forbidden)
from .laplacian import child_corners, corner_maps, midpoints, vertex_values
from .schur import NotPositiveDefiniteError, group_log_det, group_matrices, remainder_table
from .topology import cell_embedding, interior_weight, level_topology, rotation, vertex_count

# the default sampling level is min(index + 1, MQ_CAP).  Memory no longer
# calls for the cap, since chunks bound it; it keeps cutoff m=7 sampled at
# level 7, where the benchmark's reference log-dets were recorded, until
# those are recorded again at level 8
MQ_CAP = 7

# bytes of cell kernels and products a birth group of a sampled f builds
# at once (`chunk_words`).  In one sweep of 0.5, 1.5, 4 and 8 MiB (one BLAS
# thread, one run each, when harmonic f were sampled too), cutoff m=7 peaked
# at 33.8 to 33.9 MB in process and took 0.046, 0.044, 0.041 and 0.040 s,
# and cutoff m=9 at m_q=10 took 1.36, 1.19, 1.05 and 1.02 s and peaked at
# 78.6, 76.0, 75.8 and 75.6 MB
CHUNK_BYTES = 3 << 19

# the field that holds the index range of each sweep mode
INDEX_FIELDS = {"single": "j", "cutoff": "m"}


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
class GroupKernels:
    """A birth group's G eigenspaces compressed, before any block is formed:
    the tree levels of depth below `below` (all if None) as `kernels`,
    (G, 3^birth, 6), each birth-cell's `cell_kernels` divided by its word's
    rho (`gram_factors`), None if no level is kept, and the columns deeper
    than those levels as their `constants`, (G, n)."""

    series: str
    birth: int
    below: int | None
    kernels: np.ndarray | None
    constants: np.ndarray


@dataclass(frozen=True)
class CompressedOperator:
    """Multiplication operator compressed to a sum of eigenspaces.

    Eigenspaces are orthogonal, so the operator is block diagonal across
    them; `groups` keeps one `GroupKernels` per birth group, from which the
    matrices of its G eigenspaces, with entries the quadrature inner
    products <f u_a, u_b>, are built only for their eigenvalues
    (`operator_eigenvalues`).
    `localized` counts the localized basis vectors, `dimension` all of
    them, and `level` is the sampling level the kernels were built at.
    """

    groups: tuple
    localized: int
    dimension: int
    level: int


# the six entries of a symmetric 3 x 3 cell kernel, the upper triangle by
# rows, and the entry of the kernel at each (row, column)
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SYMMETRIC = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def chunk_words(group, m_q):
    """Sign words of a birth group to compress at once: as many as
    CHUNK_BYTES holds of what `cell_kernels` makes for one word, 8 bytes for
    each of 3 entries per vertex of V_{m_q - birth} (the extended column t,
    t rotated and one product of the two) and 24 per birth-cell, which
    cover the kernels, 6, and the products that sum them with room to
    spare.  Before them, the corner-table extension that builds t holds
    about as much: its last table, 2 entries per vertex, and the table and
    midpoints one level coarser, 2/3 each.  At least one: every word is
    built by its own matrix products, so the kernels do not depend on the
    chunks."""
    j = group.birth
    return max(1, CHUNK_BYTES // (8 * (3 * vertex_count(m_q - j) + 24 * 3**j)))


def cell_weights(f_values, birth, m_q):
    """[w, w rotated by 1, w rotated by 2], three (3^birth, vertices of
    V_{m_q - birth}) arrays: row C of w holds f on the birth-cell of rank C,
    read off the values on V_{m_q} through `cell_embedding`, times the share
    c_x of the vertex, 1/2 at the cell's corners and 1 elsewhere, so the
    rows sum each vertex once.  Rotated by s, w is read through
    `rotation(m_q - birth)[s]`; built once per group, for `cell_kernels`."""
    n = m_q - birth
    out = np.take(f_values, cell_embedding(m_q, birth))
    out *= np.where(level_topology(n).boundary_mask, 0.5, 1.0)
    return [out] + [np.take(out, rotation(n)[s], axis=1) for s in (1, 2)]


def corner_column(gammas):
    """t, (G, vertices of V_{m_q - birth}): the decimation extension of the
    unit vector of the corner q_1 of V_0 with the gammas gamma_{birth+1} ..
    gamma_{m_q} of each word, one a row, which the caller has refused if
    forbidden (`refuse_forbidden`).  Extension writes each new vertex of a
    cell from that cell's three corners alone, so inside a birth-cell
    every eigenfunction of a word on V_{m_q} is its T, the extensions of
    the three corner unit vectors, times its values at the cell's corners.
    The rule is symmetric in a cell's corners, and IEEE addition commutes,
    so column b of T is t read through the rotation by -b steps,
    `rotation(m_q - birth)[-b]`, bit for bit: only t is extended, as a
    (G, cells, 3) corner table."""
    table = np.broadcast_to(np.eye(3)[0], (len(gammas), 1, 3))
    for gamma in gammas.T:
        table = child_corners(table, midpoints(table, gamma))
    return vertex_values(table, level_topology(gammas.shape[1]))


def cell_kernels(weights, t, n):
    """(G, rows of w, 6): per sign word and row C of the weights w of
    `cell_weights` on V_n, n = m_q - birth, the entries `_PAIRS` of
    K_C = sum_x w[C, x] T[x]^T T[x], with T the word's extended corner
    columns, t their `corner_column`.  Substituting y = rot_a x, K_C[a, a]
    is t^2 and K_C[a, a + 1] is t t[rot_2] against w rotated by a.  Each
    word's products are their own matrix products, so its kernels do not
    depend on the other words."""
    kernels = np.empty((len(t), len(weights[0]), len(_PAIRS)))
    product = np.empty(t.shape)  # one word a row
    # the entries of `_PAIRS` at (a, a), and then at (a, a + 1 mod 3), for a = 0, 1, 2
    for pairs, other in (((0, 3, 5), t), ((1, 4, 2), t[:, rotation(n)[2]])):
        np.multiply(t, other, out=product)
        for p, slab in zip(pairs, weights):
            kernels[..., p] = np.matmul(slab, product[..., None])[..., 0]
    return kernels


@lru_cache(maxsize=None)
def _recursion_tables():
    """(start, step, back) of `corner_tensors`, in the coordinates
    (mean, u_1 - mean, u_2 - mean) of the values u_1, u_2, u_3 at a cell's
    corners q_1, q_2, q_3, which the columns of
    F = [[1, 1, 0], [1, 0, 1], [1, -1, -1]] take back to corner values, with
    3 F^-1 = [[1, 1, 1], [2, -1, -1], [-1, 2, -1]].

    In them A_i(gamma) = A_i(0) + s S_i + r D_i, where S_i gives each
    midpoint of child i the sum of the cell's corners and D_i gives it
    u_i + u_t - 2 u_r, so S_i reads the mean alone and D_i the deviations
    alone, and s = gamma / (3 (2 - gamma)) and r = gamma / (15 (5 - gamma))
    vanish at gamma = 0.  `step`, (27, 6 * 27), holds one 27 x 27 block per
    monomial 1, s, r, s^2, s r, r^2: sum_i A_i[a', a] A_i[b', b] H_i[c', c]
    over the terms of A_i (x) A_i of that monomial, at row 9 a' + 3 b' + c'
    and column 9 a + 3 b + c, with H_i = A_i(0) on the corner values of c.
    `start` is M = 1/2 delta_abc at m_q in the coordinates, and `back`, 9
    times the map of M back to corner values, holds integers, so M = 1/2
    delta_abc comes back exactly."""
    to_corners = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, -1.0, -1.0]])
    from_corners = np.array([[1.0, 1.0, 1.0], [2.0, -1.0, -1.0], [-1.0, 2.0, -1.0]])

    def conjugate(maps, scale):
        # integer maps times scale, so that the division is the only rounding
        return np.einsum("ij,njk,kl->nil", from_corners, maps, to_corners) / (3.0 * scale)

    terms = np.stack([conjugate(corner_maps(5.0, 2.0, 1.0), 5.0),
                      conjugate(corner_maps(0.0, 1.0, 1.0), 1.0),
                      conjugate(corner_maps(0.0, 1.0, -2.0), 1.0)])
    # the terms u (x) v (x) H summed over the children, for each pair (u, v)
    harmonic = corner_maps(1.0, 0.4, 0.2)
    pairs = np.einsum("uixa,viyb,izc->uvxyzabc", terms, terms, harmonic).reshape(3, 3, 27, 27)
    step = np.hstack([pairs[a, b] + pairs[b, a] if a != b else pairs[a, a]
                      for a, b in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))])
    start = 0.5 * np.einsum("cx,cy->xyc", to_corners, to_corners).ravel()
    back = np.einsum("xa,yb,cz->xyzabc", from_corners, from_corners, np.eye(3)).reshape(27, 27)
    return start, step, back


def corner_tensors(gammas):
    """(W, 6, 3) for the rows gamma_{L+1} .. gamma_{m_q} of `gammas`, (W, n),
    one sign word a row: the tensor M[a, b, c] of an L-cell, over the pairs
    (a, b) of `_PAIRS`, less its corner terms 1/2 delta_abc; refuses a
    forbidden gamma (`refuse_forbidden`).

    T, one per word, extends the cell's three corner unit vectors to its
    vertices of V_{m_q} with the word's gammas, and phi_c is the harmonic
    function of corner c, so M[a, b, c] = sum_x c_x phi_c(x) T[x, a] T[x, b],
    with the shares c_x of `cell_weights`.  A cell at m_q has its corners
    alone, so M = 1/2 delta_abc there.  Child i of a level-(l - 1) cell
    takes its corner values by the map A_i(gamma_l) of `midpoints`
    (`corner_maps`), and phi_c restricts to it by A_i(0), so M at l - 1 is
    sum_i (A_i(gamma_l) (x) A_i(gamma_l) (x) A_i(0))^T M at l, a vertex
    shared by two children taking half its share from each.

    The recursion runs in the coordinates of `_recursion_tables`, where no
    sum cancels: in corner values a word whose gamma comes within 1.4e-4 of
    5 after five small ones (a 2-series word of cutoff m=7 at m_q=10) lost
    9e-13 of its kernels' largest entry to rounding, and in these 1.3e-15."""
    refuse_forbidden(gammas)
    start, step, back = _recursion_tables()
    s, r = gammas / (3.0 * (2.0 - gammas)), gammas / (15.0 * (5.0 - gammas))
    monomials = np.stack([np.ones_like(s), s, r, s * s, s * r, r * r], axis=-1)  # (W, n, 6)
    tensor = np.tile(start, (len(gammas), 1))
    for level in reversed(range(gammas.shape[1])):
        parts = (tensor @ step).reshape(len(gammas), 6, 27)
        tensor = np.matmul(monomials[:, level, None], parts)[:, 0]
    tensor = (tensor @ back) / 9.0
    tensor[:, ::13] -= 0.5  # the entries (a, a, a)
    rows, cols = np.array(_PAIRS).T
    return tensor.reshape(-1, 3, 3, 3)[:, rows, cols]


def gram_factors(tensors, gamma):
    """rho, (W,): every column of a word's birth space, extended to V_{m_q},
    has squared quadrature norm w(m_q) rho, from the `corner_tensors` of its
    birth-cells and its birth gamma, (W,) each.  The harmonic functions of a
    cell's corners sum to 1, so the kernel of f = 1 of a birth-cell is the
    word's alone, K = sum_c (M - 1/2 delta)[:, :, c] + 1/2 I, and symmetric
    in the corners: one diagonal entry a and one off-diagonal b, each taken
    here as the mean of its three.  A column u, of plain norm 1 on V_birth,
    has norm^2 w(m_q) sum_C u(C)^T K u(C) over the birth-cells C, and there
      the corner sum of u^2 is 2 |u|^2, every interior vertex in two cells;
      the edge sum of u u' is (4 - gamma) |u|^2 / 2, as -Delta u = gamma u,
    so rho = 2 a + (4 - gamma) b."""
    ones = tensors.sum(axis=-1)
    diagonal = ones[:, 0] + ones[:, 3] + ones[:, 5] + 1.5
    off = ones[:, 1] + ones[:, 2] + ones[:, 4]
    return (2.0 * diagonal + (4.0 - gamma) * off) / 3.0


def recursive_kernels(group, f, level, m_q, tensors):
    """The `cell_kernels`, (G, 3^birth, 6), of a birth group's words at
    sampling level m_q for an f harmonic inside every L-cell, L >= birth, by
    the self-similar recursion, with no table of V_{m_q}; `tensors` are the
    birth-cells' `corner_tensors`; a forbidden gamma it reads is refused.

    Inside an L-cell D, f is the harmonic function of its corner values h
    from `f.cell_corners` but at D's corners, where the sample takes s, so
    K_D = sum_c h_c M[:, :, c] + 1/2 sum_c (s_c - h_c) e_c e_c^T with the
    word's `corner_tensors` M; that is sum_c h_c (M - 1/2 delta)[:, :, c] +
    1/2 diag(s), which is 1/2 diag(s) bit for bit at L = m_q.  A birth-cell C
    sums T_D^T K_D T_D over its L-cells D, T_D the values at D's corners of
    C's corner unit vectors, a corner table extended with the word's
    gamma_{birth+1} .. gamma_L.  Unlike `cell_weights`, f is not set to 0
    at the corners of V_0: that changes only K_C[a, a] of a corner a where
    every column vanishes."""
    birth, g = group.birth, len(group)
    if not birth <= level <= m_q:
        raise ValueError(f"kernel level {level} lies outside {birth}..{m_q}, "
                         "the birth and sampling levels")
    gammas = group.gammas_through(m_q)[:, 1:]  # gamma_{birth+1} .. gamma_{m_q}
    if level > birth:
        tensors = corner_tensors(gammas[:, level - birth:])
    harmonic, sampled = f.cell_corners(level)
    kernels = np.matmul(harmonic, tensors.swapaxes(1, 2))
    kernels[..., [0, 3, 5]] += 0.5 * sampled
    if level == birth:
        return kernels
    refuse_forbidden(gammas[:, :level - birth])  # corner_tensors refused those past L
    table = np.broadcast_to(np.eye(3)[:, None], (g, 3, 1, 3))  # (G, columns, cells, corners)
    for gamma in gammas[:, :level - birth].T:
        table = child_corners(table, midpoints(table, gamma[:, None]))
    corners = table.transpose(0, 2, 3, 1)  # T_D, (G, L-cells, corners, columns)
    full = kernels[..., _SYMMETRIC].reshape((g, -1) + corners.shape[1:])
    full = np.matmul(corners.swapaxes(-1, -2)[:, None], full @ corners[:, None]).sum(axis=2)
    rows, cols = np.array(_PAIRS).T
    return full[..., rows, cols]


def tree_layout(series, birth):
    """(depth, columns per cell) of each level of the cell tree of a birth
    space, deepest first, read off the series and birth alone: a level per
    depth 0 .. birth - 2, the root at depth 0 and the 2-series, born at 1,
    the root alone.  Each level holds 3 columns per cell, but for the
    5-series below its root, which keeps 1, and the roots R5(1) and R2(1),
    of 2 and 1."""
    root = 1 if series == SERIES_TWO else 2 if birth == 1 else 3
    return tuple((k, 1 if k and series == SERIES_FIVE else 3 if k else root)
                 for k in range(max(birth - 2, 0), -1, -1))


def column_cells(group):
    """(depth, rank) of the cell of every column of a birth group's
    eigenspaces, two arrays in column order: tree level by level, deepest
    first, cell by cell in rank order, then column by column of the level's
    part (`tree_layout`).  A column couples to another only if one's cell
    contains the other's."""
    layout = tree_layout(group.series, group.birth)
    depth = np.concatenate([np.full(3**k * c, k) for k, c in layout])
    rank = np.concatenate([np.repeat(np.arange(3**k), c) for k, c in layout])
    return depth, rank


def localized_columns(group, scale):
    """The localized columns of each eigenspace of a birth group: those at
    depths >= scale, which come first, and none for the 2-series or a scale
    of None.  Refuses a cell tree (`tree_layout`) whose columns do not add
    up to the group's multiplicity."""
    counts = [(k, 3**k * c) for k, c in tree_layout(group.series, group.birth)]
    total = sum(n for _, n in counts)
    localized = (0 if scale is None or group.series == SERIES_TWO
                 else sum(n for k, n in counts if k >= scale))
    if total != group.multiplicity:
        raise AssertionError(f"{localized} localized and {total - localized} remainder "
                             f"columns of {group.series} j={group.birth} at scale {scale}, "
                             f"expected {group.multiplicity} in all")
    return localized


def cell_constants(f, group):
    """(G, n): the constant f takes on the cell of each column of a birth
    group's eigenspaces at a depth k >= f.scale, in column order, for an f
    constant on the cells of its scale (`coefficients`).  Such a column lies
    in one depth-k cell and vanishes on its corners, so inside the
    scale-cell of rank rank // 3^(k - scale): it sees f as that cell's
    coefficient, its block is that coefficient times I, and it couples to no
    other column.  A read-only view, every eigenspace the same row."""
    values = [np.repeat(f.coefficients, 3 ** (k - f.scale) * c)
              for k, c in tree_layout(group.series, group.birth) if k >= f.scale]
    values = np.concatenate(values) if values else np.empty(0)
    return np.broadcast_to(values, (len(group), len(values)))


def basis_columns(group, m_q):
    """(G, vertices of V_{m_q}, d): the dense quadrature-orthonormal columns
    of a birth group's eigenspaces in the order of `column_cells`, whose
    compressions `group_matrices` forms: the cell tree, extended and placed.
    Depth k of the tree (`tree_layout`) holds the last c_k columns of the
    corner table of R(birth - k) (`schur.remainder_table`): all of it but
    on the 5-series below its root, which keeps K5.  Each is extended with
    each word's gamma_{birth+1} .. gamma_{m_q}, divided by the word's norm
    sqrt(w(m_q) rho) (`gram_factors`) and written into every cell of the
    depth through `cell_embedding`, and nowhere else; every column vanishes
    on the corners of V_0, whose rows stay 0."""
    g, gammas = len(group), group.gammas_through(m_q)[:, 1:]
    layout = tree_layout(group.series, group.birth)
    rho = gram_factors(corner_tensors(gammas), group.gammas[:, 0])
    scale = 1.0 / np.sqrt(interior_weight(m_q) * rho)
    out = np.zeros((g, vertex_count(m_q), sum(3**k * c for k, c in layout)))
    start = 0
    for k, c in layout:
        u = remainder_table(group.series, group.birth - k)[..., -c:]
        table = np.broadcast_to(u.transpose(2, 0, 1), (g,) + u.shape[2:] + u.shape[:2])
        for gamma in gammas.T:
            table = child_corners(table, midpoints(table, gamma[:, None]))
        values = vertex_values(table, level_topology(m_q - k))  # (G, c, vertices of V_{m_q - k})
        values *= scale[:, None, None]
        columns = start + np.arange(3**k)[:, None] * c + np.arange(c)
        out[:, cell_embedding(m_q, k)[..., None], columns[:, None]] = \
            values.swapaxes(1, 2)[:, None]
        start += 3**k * c
    return out


def orthonormality_check(vectors, level):
    """Max deviation from the identity of the quadrature Gram matrices of the
    dense columns (..., vertices of V_level, d), such as `basis_columns`.
    The columns vanish on the corners of V_0, so those rows add nothing and
    every row is weighted as an interior vertex."""
    gram = interior_weight(level) * np.swapaxes(vectors, -1, -2) @ vectors
    return float(np.max(np.abs(gram - np.eye(gram.shape[-1]))))


def compressed_operator(f, groups, m_q, scale):
    """f compressed to the sum of the eigenspaces of the birth groups, each
    sampled at level m_q and localized at the given scale, built one group
    at a time; raises FunctionalValueError when a kernel or constant is not
    finite.  A group's basis is never extended past its birth level: each
    word's eigenfunctions enter through its cell kernels.  An f with
    `cell_corners` is read at level max(birth, f.scale) by
    `recursive_kernels`, with no table of V_{m_q}; any other f is sampled on
    V_{m_q} (`sampled_kernels`).  An f constant on the cells of its scale
    (`coefficients`) is compressed on the tree levels above that scale
    alone, and the columns below take its `cell_constants`: a constant f
    keeps no level, and only its gammas are checked (`refuse_forbidden`)."""
    recursive = hasattr(f, "cell_corners")
    if not recursive:
        topo = level_topology(m_q)
        # the eigenfunctions vanish at the corners of V_0, where f may be infinite
        fvals = np.where(topo.boundary_mask, 0.0, f.sample(topo))
    below = f.scale if hasattr(f, "coefficients") else None
    parts, localized, dimension = [], 0, 0
    for group in groups:
        localized += len(group) * localized_columns(group, scale)
        dimension += len(group) * group.multiplicity
        constants = (cell_constants(f, group) if below is not None
                     else np.empty((len(group), 0)))
        gammas = group.gammas_through(m_q)[:, 1:]
        kernels = None
        if below == 0:  # f is constant: every column sees it
            refuse_forbidden(gammas)
        else:
            tensors = corner_tensors(gammas)  # of the birth-cells; refuses a forbidden gamma
            rho = gram_factors(tensors, group.gammas[:, 0])
            if recursive:
                kernels = recursive_kernels(group, f, max(group.birth, f.scale), m_q, tensors)
            else:
                kernels = sampled_kernels(fvals, group, gammas, m_q)
            kernels /= rho[:, None, None]
        parts.append(GroupKernels(group.series, group.birth, below, kernels, constants))
    if not all(np.isfinite(values).all() for part in parts
               for values in (part.constants, part.kernels) if values is not None):
        raise FunctionalValueError(f"f={f.label()} compressed at level {m_q} has non-finite entries")
    return CompressedOperator(groups=tuple(parts), localized=localized, dimension=dimension,
                              level=m_q)


def sampled_kernels(f_values, group, gammas, m_q):
    """The `cell_kernels` of a birth group for f given by its values on
    V_{m_q}, built a chunk of `chunk_words` words at a time from its slices
    of the group's gamma_{birth+1} .. gamma_{m_q}, refused if forbidden
    before, and stacked."""
    weights = cell_weights(f_values, group.birth, m_q)
    n, size = m_q - group.birth, chunk_words(group, m_q)
    chunks = [cell_kernels(weights, corner_column(gammas[a:a + size]), n)
              for a in range(0, len(group), size)]
    del weights  # before the chunks are stacked
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def log_det(op):
    """Log-determinant of a compressed operator, summed over its groups:
    G times the logs of the constants, refused unless positive as a
    Cholesky factorization refuses a pivot, and the Schur recursion of
    `schur.group_log_det` over the tree levels."""
    total = 0.0
    for group in op.groups:
        if not np.all(group.constants > 0.0):
            raise NotPositiveDefiniteError
        total += len(group.constants) * np.sum(np.log(group.constants[0]))
        if group.kernels is not None:
            total += group_log_det(group.series, group.birth, group.below, group.kernels)
    return float(total)


def spectral_functional(op, func):
    """(1/d) sum F(sigma_k) over the eigenvalues of the compressed operator,
    F applied to each as a Python float."""
    sigma = operator_eigenvalues(op)
    return float(np.mean([func(s) for s in sigma.tolist()]))


def operator_eigenvalues(op):
    """Eigenvalues of every block, in ascending order: those of each group's
    tree levels, one `eigvalsh` of its `group_matrices`, and its constants
    once per eigenspace."""
    parts = []
    for group in op.groups:
        if group.kernels is not None:
            matrices = group_matrices(group.series, group.birth, group.below, group.kernels)
            parts.append(np.linalg.eigvalsh(matrices).ravel())
        parts.append(group.constants.ravel())
    return np.sort(np.concatenate(parts))


def reference_integral(f, func, level):
    """Integral of F(f) for the self-similar measure: exact cell sums where
    the function supports them, quadrature at the given level otherwise.
    `func` maps an array of values elementwise, as `checked_log` does.

    The quadrature reads V_level off the cells one level coarser, no table of
    V_level built: the vertices of V_{level - 1} and the midpoints of their
    cells' edges.  Each level-cell carries mass 3^-level split over its three
    corners, and every vertex but the three corners of V_0 lies in two.  A
    harmonic f builds no table at all: each (level - 1)-cell gives its
    corners (`cell_corners`) and its midpoints by the harmonic rule of
    `laplacian.midpoints`."""
    if hasattr(f, "cell_integral"):
        return f.cell_integral(func)
    if hasattr(f, "cell_corners"):
        corners = f.cell_corners(level - 1)[1]
        total = np.sum(func(corners)) + 2.0 * np.sum(func(midpoints(corners, 0.0)))
    else:
        topo = level_topology(level - 1)
        values = f.sample(topo)
        total = np.where(topo.boundary_mask, 1.0, 2.0) @ func(values)
        total += 2.0 * np.sum(func(f.midpoints(topo)))
    return float(total * 3.0 ** (-level) / 3.0)


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
    F(f(s_k)) over the matched point set, each refused if not finite.

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
    compared = spectral, riemann, abs(spectral - riemann)
    if not all(map(math.isfinite, compared)):  # a mean of finite values may overflow
        raise FunctionalValueError(f"F for f={f.label()} averages {compared}: not all finite")
    return compared


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


@lru_cache(maxsize=None)
def _canonical_group(series, j, m):
    """The all-(-1)-after-birth eigenvalue of the series at level m (the
    forced +1 first for the 6-series), a group of one word; cached, so the
    config check and the run of a single-mode sweep share it (a group is
    frozen and its arrays read-only)."""
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
        if not 1 <= index <= level:  # below 1, the default level is no bound to name
            raise ValueError(f"{field}: {index} lies below 1" if index < 1 else
                             f"{field}: {index} lies outside 1..{level}, its sampling level")
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
    where error ~ dimension^(-exponent), or (None, None) when the records
    with a positive error have fewer than two distinct dimensions."""
    pts = [(r.dimension, r.error) for r in records if r.error > 0.0]
    if len({d for d, _ in pts}) < 2:
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
