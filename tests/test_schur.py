"""The Schur recursion up the cells (`schur`) that gives every log-det of the
Szegő path and the matrices of every eigenvalue, against the elimination
over the tree blocks and the exit contract, and the remainder tables that
its steps build, against the recursions on tables."""
import collections
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from sgszego import cli, schur
from sgszego import decimation as dec
from sgszego import szego as sz
from sgszego.decimation import enumerate_spectrum
from sgszego.functions import (ConstantFunction, ExpressionFunction, HarmonicFunction,
                               SimpleCellFunction)
from sgszego.laplacian import child_corners, midpoints

from subspaces import cell_ordered, dense_blocks, eliminate, five_series_corners, tree_blocks

# `h` and `s` of the measurements, cell-constant f of scales 2 and 3, a
# constant and an f that is sampled on V_{m_q}
MULTIPLIERS = (HarmonicFunction([1.2, 1.5, 1.9]), SimpleCellFunction([2.689, 2.516, 1.841]),
               SimpleCellFunction([1.0 + 0.1 * i for i in range(9)]),
               SimpleCellFunction(np.linspace(1.0, 2.0, 27)), ConstantFunction(1.7),
               ExpressionFunction("1.5 + x * y + 0.3 * sin(7 * x)"))


@pytest.mark.parametrize("series,index", [("cutoff", m) for m in range(1, 10)]
                         + [(s, j) for s in ("five", "six") for j in range(2, 11)])
def test_recursion_matches_the_elimination_oracle(series, index):
    # every birth group's log-det, the recursion's from its kernels against
    # the multifrontal elimination of its tree blocks, built from the same
    # kernels and the tree's corner values, within 1e-14 relative (1.4e-15
    # measured), at m_q = index .. index + 2
    for m_q in range(index, index + 3):
        groups = (enumerate_spectrum(index) if series == "cutoff"
                  else (sz._canonical_group(series, index, m_q),))
        for f in MULTIPLIERS:
            if getattr(f, "scale", 0) > m_q:  # no kernel level
                continue
            op = sz.compressed_operator(f, groups, m_q, 1)
            for part, blocks in zip(op.groups, tree_blocks(op), strict=True):
                one = sz.CompressedOperator(groups=(part,), localized=0, dimension=0, level=m_q)
                new, old = sz.log_det(one), eliminate(blocks)
                assert abs(new - old) <= 1e-14 * abs(old), \
                    (f.label(), m_q, part.series, part.birth, new, old)


def test_glue_coefficients_give_the_five_series_tables():
    # R5(i) built from E5(1) by the glue coefficients alone, copies of N5
    # placed into the 1-cells a level at a time by the one table of every
    # i >= 2 (`remainder_table`), is the table of the recursion that splits
    # each level anew within 1e-12 of its largest entry up to i = 13, K5
    # with its sign, and so are its normal derivatives.  The gap is the
    # recursion's: it loses about a bit a level, the Cholesky basis of N5
    # amplifying the rounding of the level below, while the glue is
    # computed once.  The columns are orthonormal within 1e-13.  The root of
    # a birth at 1, E5(1), is the table's N5(1).  The cached tables, 0.17 GB
    # by i = 13, are dropped after
    assert np.max(np.abs(schur._root_step("five", 1)[2] - schur.remainder_table("five", 1))) \
        <= 1e-15
    for i in range(2, 14):
        assert dec.five_series_glue(i) is dec.five_series_glue(2)
        table, expected = schur.remainder_table("five", i), five_series_corners(i)
        size = np.max(np.abs(expected))
        assert np.max(np.abs(table - expected)) <= 1e-12 * size, i
        normal, reference = (dec.normal_derivatives(t)[:, :2] for t in (table, expected))
        assert np.max(np.abs(normal - reference)) <= 1e-12 * np.max(np.abs(reference)), i
        columns = table.reshape(-1, 3)
        assert np.max(np.abs(0.5 * columns.T @ columns - np.eye(3))) <= 1e-13, i
    schur.remainder_table.cache_clear()
    five_series_corners.cache_clear()


def test_five_series_normal_derivatives_are_one_isometry():
    # the normal derivatives of N5(i) at q_1, q_2, q_3 are (3/5)^((i - 1)/2)
    # times an isometry, within 1e-14, for i = 2 .. 13 (1.3e-15 measured):
    # the glue is built once, so no level amplifies the rounding of the one
    # below (`five_series_corners`, which splits each level anew, is 2.7e-14
    # off at i = 10 and 2.1e-13 at i = 13)
    for i in range(2, 14):
        normal = dec.normal_derivatives(schur.remainder_table("five", i))[:, :2]
        normal /= 0.6 ** ((i - 1) / 2)
        assert np.max(np.abs(normal.T @ normal - np.eye(2))) <= 1e-14, i
    schur.remainder_table.cache_clear()


def test_one_glue_table_serves_every_level(monkeypatch):
    # every 5-series step of births 1 .. 12, eliminating and folding, comes
    # from one junction nullspace: five step tables in all, the fold onto
    # E5(1), the glue eliminated and folded, and two roots, one shared by
    # every birth >= 2
    caches = (dec._five_series_glue, schur._glue_step, schur._root_step)
    for cache in caches:
        cache.cache_clear()
    shapes = []
    nullspace = dec.junction_nullspace
    monkeypatch.setattr(dec, "junction_nullspace",
                        lambda normal: shapes.append(normal.shape) or nullspace(normal))
    try:
        steps = {(birth, below): [step for _, step in schur._steps("five", birth, below)]
                 for birth in range(1, 13) for below in (None, 1, 3)}
    finally:
        for cache in caches:
            cache.cache_clear()
    assert shapes == [(3, 2)]
    assert len({id(step) for chain in steps.values() for step in chain}) == 5
    assert len({id(chain[-1]) for (birth, _), chain in steps.items() if birth > 1}) == 1


def test_single_five_strong_szego_constant_is_level_free():
    # E = the kept root's log-det minus its 3 columns times the integral of
    # log f, the second-order term of the single five eigenspace of a
    # scale-1 f at m_q = j + 1, agrees over j = 5 .. 13 within 1e-14 (2.2e-15
    # measured; 1.2e-13 by j = 12 when the glue was rebuilt at every level)
    f = SimpleCellFunction([2.689, 2.516, 1.841])
    values = []
    for j in range(5, 14):
        group = sz._canonical_group("five", j, j + 1)
        (part,) = sz.compressed_operator(f, (group,), j + 1, 1).groups
        logdet = schur.group_log_det(part.series, part.birth, part.below, part.kernels)
        values.append(logdet - 3 * f.cell_integral(np.log))
    assert max(values) - min(values) <= 1e-14, values


@pytest.mark.parametrize("n", range(2, 13))
def test_chain_gram_is_the_remainder_gram(n):
    # the 1/2 I form folded up the chain gives S, the plain Gram matrix of
    # the chain's extended midpoint columns on V_n, which
    # `remainder_table` orthonormalizes, within 1e-14 of its largest entry
    table = dec._midpoint_table(np.eye(3)).transpose(2, 0, 1)
    for gamma in dec.six_series_chain(n):
        table = child_corners(table, midpoints(table, gamma))
    columns = table.reshape(3, -1)
    gram = 0.5 * columns @ columns.T
    assert np.max(np.abs(schur._chain_gram(n) - gram)) <= 1e-14 * np.max(np.abs(gram))


def _exact_fold(form, maps):
    """sum_i maps_i^T form maps_i in rationals, of float64 maps (3, 3, 3)."""
    maps = [[[Fraction(float(x)) for x in row] for row in cell] for cell in maps]
    return [[sum(cell[a][p] * form[a][b] * cell[b][q]
                 for cell in maps for a in range(3) for b in range(3))
             for q in range(3)] for p in range(3)]


def test_chain_gram_is_the_exact_fold():
    # S(n) is the fold of 1/2 I by the chain's float64 maps, computed in
    # rationals and rounded once, within 1e-16 of its largest entry for
    # n = 2 .. 12 (6.8e-17 measured; 1.05e-15 when folded in float64): each
    # entry is the exact one correctly rounded, on every platform, since
    # the fold runs in integers
    form = [[Fraction(1, 2) if a == b else Fraction(0) for b in range(3)] for a in range(3)]
    for n in range(2, 13):
        form = _exact_fold(form, schur._chain_maps(n - 1))
        exact = _exact_fold(form, dec._midpoint_table(np.eye(3)))
        size = max(abs(x) for row in exact for x in row)
        gram = schur._chain_gram(n)
        error = max(abs(Fraction(float(gram[p, q])) - exact[p][q])
                    for p in range(3) for q in range(3))
        assert error <= Fraction(1e-16) * size, (n, float(error / size))
        assert gram.tolist() == [[float(x) for x in row] for row in exact], n


@pytest.mark.parametrize("series,index", [("cutoff", m) for m in range(1, 7)]
                         + [(s, j) for s in ("five", "six") for j in range(2, 8)])
def test_matrices_and_log_det_are_one_traversal(series, index):
    # the matrices that the steps build with their columns kept have the
    # log-det that they eliminate, within 1e-14 relative per group, and are
    # the tree blocks built from the same kernels, within 1e-13 of their
    # largest entry, at m_q = index + 1
    m_q = index + 1
    groups = (enumerate_spectrum(index) if series == "cutoff"
              else (sz._canonical_group(series, index, m_q),))
    for f in MULTIPLIERS:
        if getattr(f, "scale", 0) > m_q:  # no kernel level
            continue
        op = sz.compressed_operator(f, groups, m_q, 1)
        for part, blocks in zip(op.groups, tree_blocks(op), strict=True):
            if part.kernels is None:
                continue
            matrices = schur.group_matrices(part.series, part.birth, part.below, part.kernels)
            sign, logdet = np.linalg.slogdet(matrices)
            expected = schur.group_log_det(part.series, part.birth, part.below, part.kernels)
            assert np.all(sign == 1.0)
            assert abs(np.sum(logdet) - expected) <= 1e-14 * abs(expected), \
                (f.label(), part.series, part.birth)
            oracle = dense_blocks(blocks)
            assert np.max(np.abs(cell_ordered(part) - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@pytest.mark.parametrize("mode,series,scale", [("cutoff", "six", 1), ("single", "five", None),
                                               ("single", "six", None)])
def test_a_pivot_that_is_not_positive_exits_3(mode, series, scale, tmp_path):
    # a harmonic f that changes sign has no closed-form columns, so the
    # refusal is the recursion's: a pivot <= 0, with the message of the
    # elimination it replaced (at index 3 both find the operator positive
    # definite, at 4 neither does)
    f = HarmonicFunction([1.0, -0.5, 2.0])
    ((_, op),) = sz.operators(f, mode, [4], scale, series)
    assert all(part.constants.shape[1] == 0 for part in op.groups)
    with pytest.raises(sz.NotPositiveDefiniteError):
        sz.log_det(op)
    argv = ["szego", "--mode", mode, "--series", series, f"--{sz.INDEX_FIELDS[mode]}", "4"]
    argv += ["--N", str(scale)] if scale is not None else []
    out = tmp_path / "bad"
    assert cli.main(argv + ["--f", f.label(), "--out", str(out)]) == 3
    detail = json.loads((out / "error.json").read_text())["detail"]
    assert detail == str(sz.NotPositiveDefiniteError())


def _entered(argvs, out):
    """How often each function was entered while the argvs ran in process,
    from cold caches."""
    for module in (dec, sz, schur):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    entered = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            entered[frame.f_code] += 1
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv + ["--out", str(out)]) for argv in argvs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(argvs)
    return entered


# the tables of the cell tree, by their code object
TREE = {"remainder_table": schur.remainder_table.__wrapped__.__code__}


def test_szego_sweeps_build_no_tree(tmp_path):
    # the two benchmark argvs and a sampled cutoff sweep reach no remainder
    # table or tree level: the log-det is the recursion's.  Nor do the
    # eigenvalues of `equidist`, the recursion's matrices, while `basis`
    # builds its columns from the tables
    entered = _entered([
        ["szego", "--mode", "cutoff", "--m", "7", "--N", "1", "--f", "harmonic:1.2,1.5,1.9"],
        ["szego", "--mode", "single", "--series", "six", "--j", "7", "--N", "4",
         "--f", "simple:2.689,2.516,1.841"],
        ["szego", "--mode", "cutoff", "--m", "4", "--N", "1", "--f", "expr:1.5+x*y"],
    ], tmp_path)
    for name, code in TREE.items():
        assert entered[code] == 0, name
    assert entered[schur.group_log_det.__code__] > 0
    for argv in (["equidist", "--mode", "single", "--j", "3", "--f", "harmonic:1,1.5,2",
                  "--F", "log"],
                 ["equidist", "--mode", "cutoff", "--m", "4", "--N", "1", "--f",
                  "simple:2.689,2.516,1.841", "--F", "log"]):
        entered = _entered([argv], tmp_path)
        for name, code in TREE.items():
            assert entered[code] == 0, (argv[2:4], name)
        assert entered[schur.group_matrices.__code__] > 0
    entered = _entered([["basis", "--series", "five", "--j", "4", "--N", "1", "--m-q", "5"]],
                      tmp_path)
    for name, code in TREE.items():
        assert entered[code] > 0, name
