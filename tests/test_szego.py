import collections
import dataclasses
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from sgszego import cli
from sgszego import decimation as dec
from sgszego import functions
from sgszego import laplacian as lap
from sgszego import schur
from sgszego import szego as sz
from sgszego import topology as top
from sgszego.decimation import enumerate_spectrum
from sgszego.functions import (ConstantFunction, ExpressionFunction, HarmonicFunction,
                               SimpleCellFunction)

from subspaces import (FunctionSum, assemble_compressed, cell_ordered, cell_tree,
                       dense_blocks, dense_matrix, eliminate, extend_eigenfunction, index_of,
                       interior_basis, lattice_keys, long_double_basis, one_level, one_word,
                       scale_cells, tree_blocks)


def test_identity_for_constant_one():
    group = one_word("six", 2, (1,))
    op = sz.compressed_operator(ConstantFunction(1.0), [group], 3, None)
    assert np.max(np.abs(dense_matrix(op) - np.eye(op.dimension))) < 1e-10


def test_scaling_for_constant():
    c = 2.7
    group = one_word("five", 2, (-1,))
    op = sz.compressed_operator(ConstantFunction(c), [group], 3, None)
    d = op.dimension
    assert np.max(np.abs(dense_matrix(op) - c * np.eye(d))) < 1e-10
    assert sz.log_det(op) == pytest.approx(d * math.log(c), abs=1e-10)


def test_simple_function_localized_diagonal():
    # a localized vector supported in cell (k,) sees a scale-1 simple f as
    # multiplication by its coefficient a_k
    f = SimpleCellFunction([1.0, 2.0, 3.0])
    group = one_word("six", 3, (1,))
    op = sz.compressed_operator(f, [group], 4, 1)
    # localized column i lies in the 1-cell of rank cell[i], the word (cell[i] + 1,)
    cell = scale_cells(group, 1).tolist()
    localized = len(cell)
    cell += [None] * (group.multiplicity - localized)
    assert localized > 0
    matrix = dense_matrix(op)
    for i in range(localized):
        assert matrix[i, i] == pytest.approx(f.coefficients[cell[i]], abs=1e-10)
        for jj in range(group.multiplicity):
            if jj != i and cell[jj] != cell[i]:
                assert abs(matrix[i, jj]) < 1e-10


def test_log_det_matches_eigenvalue_sum():
    f = HarmonicFunction([1.0, 1.5, 2.0])
    group = one_word("six", 2, (1, -1))
    op = sz.compressed_operator(f, [group], 4, None)
    ld = sz.log_det(op)
    via_eigs = float(np.sum(np.log(sz.operator_eigenvalues(op))))
    assert abs(ld - via_eigs) / abs(via_eigs) < 1e-8


def test_log_det_small_matrices():
    # the elimination oracle on one block of one cell
    assert eliminate(one_level(np.eye(4))) == 0.0
    assert eliminate(one_level(np.diag([1.0, 2.0, 3.0]))) == pytest.approx(math.log(6.0))
    with pytest.raises(sz.NotPositiveDefiniteError):
        eliminate(one_level(np.diag([1.0, -1.0])))


def test_non_positive_constant_is_not_positive_definite():
    # a coefficient <= 0 among the constants of the closed-form columns is
    # refused as a Cholesky factorization refuses a pivot: a constant f's,
    # and a scale-1 f's on the depth-1 cells of six j=3
    group = one_word("six", 3, (1,))
    for f in (ConstantFunction(-1.0), ConstantFunction(0.0), SimpleCellFunction([1.0, 2.0, -3.0])):
        op = sz.compressed_operator(f, [group], 4, None)
        assert op.groups[0].constants.shape[1] > 0
        with pytest.raises(sz.NotPositiveDefiniteError):
            sz.log_det(op)


def test_single_sweep_constant_is_exact():
    records = sz.szego_sweep(ConstantFunction(2.0), "single", range(2, 5), 1)
    assert [r.index for r in records] == [2, 3, 4]
    for r in records:
        assert r.error < 1e-9
        assert r.integral == pytest.approx(math.log(2.0))


def test_single_sweep_refuses_small_births():
    # a birth j <= N has no localized vectors: the whole sweep is refused, as
    # the command line refuses it, instead of dropping those rows
    with pytest.raises(ValueError, match="N"):
        sz.szego_sweep(ConstantFunction(2.0), "single", range(1, 4), 2)
    # a negative scale is refused with the message the command line gives
    with pytest.raises(ValueError, match="^N: must be >= 0$"):
        sz.szego_sweep(ConstantFunction(2.0), "single", [3], -1)


@pytest.mark.parametrize("field,args,kwargs", [
    ("j", ("single", [0], None), {}),
    ("j", ("single", [8], None), {}),  # sampled at MQ_CAP = 7
    ("j", ("single", [3], None), {"m_q": 2}),
    ("j", ("single", [1], None), {}),  # no 6-series birth at 1
    ("j", ("single", [2], None, "two"), {}),
    ("j", ("single", [2], None, "seven"), {}),
    ("N", ("single", [2, 3], 2), {}),
    ("m", ("cutoff", [0], 1), {}),
    ("m", ("cutoff", [8], 1), {}),
    ("m", ("cutoff", [3], 1), {"m_q": 2}),
    ("mode", ("both", [2], 1), {}),
    ("N", ("single", [3], -1), {}),
    ("N", ("cutoff", [3], -1), {}),
])
def test_sweep_plan_refusals_name_the_field(field, args, kwargs):
    with pytest.raises(ValueError, match=f"^{field}: "):
        sz.sweep_plan(*args, **kwargs)


def test_sweep_plan_sampling_levels():
    ((j, (group,), level),) = sz.sweep_plan("single", [7], 4)
    assert (j, group.birth, group.level, level) == (7, 7, 7, 7)
    ((_, (group,), level),) = sz.sweep_plan("single", [4], 1, "five", m_q=8)
    assert (group.series, group.birth, group.level, level) == ("five", 4, 8, 8)
    ((m, groups, level),) = sz.sweep_plan("cutoff", [6], 1)
    assert (m, level) == (6, 7)
    assert groups is enumerate_spectrum(6)
    # N only limits single mode: cutoff keeps its births <= N, unsplit
    assert [level for _, _, level in sz.sweep_plan("cutoff", [1, 2], 3)] == [2, 3]


def test_single_sweep_simple_function_bound_and_rate():
    f = SimpleCellFunction([1.0, 2.0, 3.0])
    records = sz.szego_sweep(f, "single", range(2, 6), 1)
    # the eigenvalues of the compressed operator stay inside [min f, max f]
    # and the error obeys the localization bound (alpha/d)(||log f||_1 + ||f||_inf)
    norm_log = f.cell_integral(lambda v: abs(math.log(v)))
    sup = max(f.coefficients)
    for r in records:
        alpha = r.nonlocalized_dim
        assert r.error <= (alpha / r.dimension) * (norm_log + sup) + 1e-12
    scaled = [r.error * r.dimension for r in records]
    assert max(scaled) / min(scaled) < 10.0


def test_operator_eigenvalue_range():
    f = SimpleCellFunction([1.0, 2.0, 3.0])
    group = one_word("six", 3, (1,))
    op = sz.compressed_operator(f, [group], 4, None)
    sigma = sz.operator_eigenvalues(op)
    assert sigma.min() >= 1.0 - 1e-10
    assert sigma.max() <= 3.0 + 1e-10


def test_cutoff_constant_exact():
    records = sz.szego_sweep(ConstantFunction(1.7), "cutoff", range(2, 5), 1)
    for r in records:
        assert r.error < 1e-9
        assert r.dimension == (3 ** (r.index + 1) - 3) // 2


def test_cutoff_block_logdet_consistency():
    f = HarmonicFunction([1.0, 1.5, 2.0])
    ((_, op),) = sz.operators(f, "cutoff", [3], 1)
    full = dense_matrix(op)
    total = eliminate(one_level(full))
    blocks = sum(eliminate(one_level(mat))
                 for stack in map(cell_ordered, op.groups) for mat in stack)
    assert abs(total - blocks) / abs(total) < 1e-8
    assert abs(sz.log_det(op) - total) / abs(total) < 1e-8
    start = 0
    oracle = (mat for stack in map(dense_blocks, tree_blocks(op)) for mat in stack)
    for mat, new in zip(oracle, (mat for stack in map(cell_ordered, op.groups) for mat in stack)):
        stop = start + mat.shape[0]
        assert np.array_equal(full[start:stop, start:stop], mat)
        assert np.max(np.abs(new - mat)) <= 1e-13 * np.max(np.abs(mat))
        start = stop
    assert start == op.dimension
    dense = np.linalg.eigvalsh(dense_matrix(op))
    assert np.max(np.abs(sz.operator_eigenvalues(op) - dense)) < 1e-12


def test_spectral_functionals():
    c = 1.3
    group = one_word("six", 2, (1,))
    op = sz.compressed_operator(ConstantFunction(c), [group], 3, None)
    d = op.dimension
    assert sz.spectral_functional(op, math.log) == pytest.approx(sz.log_det(op) / d, abs=1e-12)
    assert sz.spectral_functional(op, lambda s: s * s) == pytest.approx(c * c, abs=1e-10)
    f = HarmonicFunction([1.0, 1.5, 2.0])
    op2 = sz.compressed_operator(f, [group], 3, None)
    assert sz.spectral_functional(op2, lambda s: s) * d == pytest.approx(
        float(np.trace(dense_matrix(op2))), abs=1e-12
    )
    # the average eigenvalue stays in the range of f
    mean = sz.spectral_functional(op2, lambda s: s)
    assert 1.0 - 1e-12 <= mean <= 2.0 + 1e-12


def test_equidistribution_constant():
    c = 2.0
    group = one_word("six", 3, (1,))
    op = sz.compressed_operator(ConstantFunction(c), [group], 4, None)
    spectral, riemann, gap = sz.equidistribution_compare(op, ConstantFunction(c), lambda s: s)
    assert spectral == pytest.approx(c, abs=1e-10)
    assert riemann == pytest.approx(c, abs=1e-14)
    assert gap < 1e-10


def test_equidistribution_gap_shrinks():
    f = HarmonicFunction([1.0, 1.5, 2.0])
    gaps = []
    for j in (2, 3, 4):
        m_q = j + 1
        group = sz._canonical_group("six", j, m_q)
        op = sz.compressed_operator(f, [group], m_q, None)
        gaps.append(sz.equidistribution_compare(op, f, lambda s: s)[2])
    assert gaps[-1] < gaps[0]


def test_perturbation_trend():
    # a simple function plus a small harmonic ripple still shows the
    # decreasing error trend of the pure simple case
    f = FunctionSum(SimpleCellFunction([1.0, 2.0, 3.0]), HarmonicFunction([0.0, 0.05, 0.0]))
    records = sz.szego_sweep(f, "single", range(2, 5), 1)
    assert records[-1].error < records[0].error


def test_riemann_points():
    r, ranks = sz.riemann_points(9)
    assert r == 2
    assert len(ranks) == 9 and len(set(ranks.tolist())) == 9
    r5, ranks5 = sz.riemann_points(5)
    assert r5 == 2
    assert len(ranks5) == 5 and len(set(ranks5.tolist())) == 5
    assert all(0 <= k < 9 for k in ranks5)


def test_equidistribution_riemann_points_below_the_cell_scale():
    # six j=2 has d = 3, so the Riemann points are corner q1 of the three
    # 1-cells, while f is piecewise constant on the 27 3-cells: each point
    # takes the coefficient of its least containing 3-cell
    f = SimpleCellFunction(np.arange(1.0, 28.0) ** 2)
    ((_, op),) = sz.operators(f, "single", [2], None)
    assert (op.dimension, op.level) == (3, 3)
    topo = top.level_topology(3)
    points = index_of(topo, lattice_keys(np.arange(3), 1, 1) << 2)
    # q1, and the midpoints of q1q2 and q1q3, lie least in the cells 111, 122, 133
    assert topo.rank[points].tolist() == [0, 4, 8]
    expected = float(np.mean([math.log(c) for c in f.coefficients[topo.rank[points]]]))
    spectral, riemann, gap = sz.equidistribution_compare(op, f, math.log)
    assert riemann == expected
    assert gap == abs(spectral - expected)


def test_fit_rate_on_synthetic_power_law():
    recs = [
        sz.SzegoExperimentRecord("single", j, d, 0.0, 0.0, 3.0 * d**-0.7)
        for j, d in enumerate([3, 12, 39, 120])
    ]
    rate, r2 = sz.fit_rate(recs)
    assert rate == pytest.approx(0.7, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-10)
    # positive errors at one distinct dimension leave no line to fit
    assert sz.fit_rate(recs[:1] * 2 + [dataclasses.replace(recs[2], error=0.0)]) == (None, None)


def test_rate_exponents():
    assert sz.beta_exponent(1.0) == pytest.approx(1.0 - math.log(3.0) / math.log(5.0))
    assert sz.beta_exponent(0.5) == pytest.approx(1.0 - math.log(9.0) / math.log(15.0))
    assert sz.beta_tilde_exponent(1.0) == pytest.approx(
        sz.beta_exponent(1.0) * (1.0 - math.log(2.0) / math.log(3.0))
    )


def test_record_integral_one_level_finer_than_sampling():
    # a record sampled at level 8 takes its reference integral at level 9;
    # the quadrature path maps the whole sample at once
    f = HarmonicFunction([1.0, 1.5, 2.0])
    (record,) = sz.szego_sweep(f, "single", [4], 1, "six", m_q=8)
    assert record.integral == sz.reference_integral(f, np.log, 9)


def test_reference_integral_uses_exact_cell_sums():
    f = SimpleCellFunction([1.0, 2.0, 3.0])
    exact = (math.log(1.0) + math.log(2.0) + math.log(3.0)) / 3.0
    assert sz.reference_integral(f, math.log, 3) == pytest.approx(exact, abs=1e-15)


@pytest.mark.parametrize("mode", ["single", "cutoff"])
def test_constant_is_the_one_cell_simple_function(mode, tmp_path):
    # constant:c is simple:c, the simple function of scale 0, so the two
    # sample, compress and integrate alike, bit for bit; only the label
    # and the config hash differ
    specs = ("constant:2.5", "simple:2.5")
    constant, simple = map(functions.parse_function_spec, specs)
    assert isinstance(constant, SimpleCellFunction) and constant.scale == simple.scale == 0
    assert constant.label() == "constant:2.5"
    for level in range(4):
        topo = top.level_topology(level)
        assert np.array_equal(constant.sample(topo), simple.sample(topo))
    for group in enumerate_spectrum(3):
        tensors = _birth_tensors(group, 4)
        assert np.array_equal(sz.recursive_kernels(group, constant, group.birth, 4, tensors),
                              sz.recursive_kernels(group, simple, group.birth, 4, tensors))
    # every field of a record but its wall time
    records = [[dataclasses.astuple(r)[:-1] for r in sz.szego_sweep(f, mode, range(2, 5), 1)]
               for f in (constant, simple)]
    assert records[0] == records[1]
    field = sz.INDEX_FIELDS[mode]
    outputs = []
    for spec in specs:
        out = tmp_path / spec.partition(":")[0]
        argv = ["szego", "--mode", mode, f"--{field}", "2..4", "--N", "1", "--f", spec]
        assert cli.main(argv + ["--out", str(out)]) == 0
        outputs.append([(out / name).read_text().splitlines()[1:]
                        for name in (f"szego_{mode}.csv", f"szego_{mode}_loglog.csv")]
                       + [json.loads((out / "summary.json").read_text())["results"]])
    assert outputs[0] == outputs[1]


def test_records_export(tmp_path):
    records = sz.szego_sweep(ConstantFunction(2.0), "single", range(2, 4), 1)
    p1 = tmp_path / "records.csv"
    cli.export_csv(p1, ("# test",), ["mode", "index"], ([r.mode, r.index] for r in records))
    assert p1.read_text() == "# test\nmode,index\n" + "".join(
        f"single,{r.index}\n" for r in records)
    assert p1.read_bytes().count(b"\r\n") == 1 + len(records)
    argv = ["szego", "--mode", "single", "--j", "2..3", "--N", "1", "--f", "constant:2"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / "szego_single.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and lines[1].startswith("mode,")
    assert len(lines) == 2 + len(records)
    lines = (tmp_path / "szego_single_loglog.csv").read_text().splitlines()
    assert lines[1] == "log_d,log_error"


@pytest.mark.parametrize("N", [None, 1, 2])
@pytest.mark.parametrize("m,m_q", [(m, m) for m in range(3, 7)] + [(6, 7)],
                         ids=["3", "4", "5", "6", "6-at-7"])
def test_full_compression_at_level_m_is_the_riemann_mean(m, m_q, N):
    # at m_q = m the level-m eigenspaces span the interior of V_m and the
    # quadrature weight is uniform there, so the full compression onto the
    # bases of every birth group together has log det / d equal to the mean
    # of log f over the interior.  The cutoff operator is its block
    # diagonal, also one level finer, where the columns `basis` exports no
    # longer span the interior
    topo = top.level_topology(m_q)
    groups = enumerate_spectrum(m)
    vectors = np.concatenate([col for group in groups for col in interior_basis(group, m_q)],
                             axis=1)
    assert vectors.shape == (top.interior_count(m_q), top.interior_count(m))
    for f in (HarmonicFunction([1.2, 1.5, 1.9]), SimpleCellFunction([2.689, 2.516, 1.841])):
        fvals = f.sample(topo)[topo.interior_indices]
        full = top.interior_weight(m_q) * (vectors.T * fvals) @ vectors
        if m_q == m:
            mean = float(np.mean(np.log(fvals)))
            assert abs(eliminate(one_level(full)) / len(full) - mean) <= 1e-13 * abs(mean), \
                (m, N, f.label())
        start = 0
        for block in (b for part in sz.compressed_operator(f, groups, m_q, N).groups
                      for b in cell_ordered(part)):
            stop = start + len(block)
            assert np.max(np.abs(full[start:stop, start:stop] - block)) <= \
                1e-13 * np.max(np.abs(block)), (m, m_q, N, f.label())
            start = stop
        assert start == len(full)


def test_basis_columns_match_the_long_double_extension():
    # every birth group of cutoff m=6 at m_q=9 against its cell tree extended
    # vertex by vertex and normalized in long double, within 1e-14 of each
    # column's largest entry (the float64 extension was 2.9e-14 off here);
    # each level is compared on its cells' interior rows, and is zero
    # elsewhere, the corners of V_0 included
    m_q = 9
    for group in enumerate_spectrum(6):
        vectors = sz.basis_columns(group, m_q)
        exact = long_double_basis(group, m_q)
        start = 0
        for k, part in zip(exact.depths, exact.parts, strict=True):
            c = part.shape[2]
            small = top.level_topology(m_q - k).interior_indices
            rows = top.cell_embedding(m_q, k)[:, small, None]
            cols = start + np.arange(3**k)[:, None, None] * c + np.arange(c)
            expected = 3.0 ** (k / 2) * part[:, None]  # (G, cells, rows of a cell, c)
            error = np.max(np.abs(vectors[:, rows, cols] - expected), axis=2)
            assert np.all(error <= 1e-14 * np.max(np.abs(expected), axis=2)), \
                (group.series, group.birth, k)
            vectors[:, rows, cols] = 0.0
            start += 3**k * c
        assert start == vectors.shape[2] and not vectors.any(), (group.series, group.birth)


def _birth_tensors(group, m_q):
    """The `corner_tensors` of a group's birth-cells, as
    `compressed_operator` builds them for its kernels and norms."""
    return sz.corner_tensors(group.gammas_through(m_q)[:, 1:])


def _corner_column(group, m_q):
    """The `corner_column` of a group's words extended to V_{m_q - birth}."""
    return sz.corner_column(group.gammas_through(m_q)[:, 1:])


def _gram_factors(group, m_q):
    """The `gram_factors` of a group's words, as `compressed_operator`
    reads them off its birth-cells' tensors."""
    return sz.gram_factors(_birth_tensors(group, m_q), group.gammas[:, 0])


def _word_bytes(group, m_q):
    """Bytes of what compressing one sign word holds: the extended corner
    column t, t rotated and one product of the two, 3 entries per vertex of
    V_{m_q - birth}, and 24 per birth-cell for the kernels and the products
    that sum them."""
    return 8 * (3 * top.vertex_count(m_q - group.birth) + 24 * 3**group.birth)


# an f that no cell level makes harmonic: its kernels are sampled on
# V_{m_q} and built in chunks
SAMPLED = ExpressionFunction("1.5 + x * y + 0.3 * sin(7 * x)")


def test_cutoff_builds_birth_groups_in_chunks(monkeypatch):
    # one kernel build per chunk of a (series, birth) group, one stack of
    # kernels per group and no tree block, and extensions that grow with
    # chunks x levels past the birth, not with words or tree depths; no basis
    # part is extended past its birth level
    f = SAMPLED
    groups = enumerate_spectrum(6)
    assert (len(groups), sum(map(len, groups))) == (12, 111)
    m_q = sz.sweep_plan("cutoff", [6], 1)[0][2]
    budget = 1 << 16  # splits the early-born groups of m = 6 at m_q = 7
    monkeypatch.setattr(sz, "CHUNK_BYTES", budget)
    chunks, steps = 0, []
    for group in groups:
        size = max(1, budget // _word_bytes(group, m_q))
        count = -(-len(group) // size)
        sizes = [size] * (count - 1) + [len(group) - size * (count - 1)]
        assert sz.chunk_words(group, m_q) == size
        chunks += count
        # T of each chunk is extended from V_0 to V_{m_q - birth}, one step
        # a level on a (words, cells, 3) corner table
        steps += [(words, 3**level, 3) for words in sizes for level in range(m_q - group.birth)]
        cell_tree(group.series, group.birth)  # the remainders, cached
    assert chunks > len(groups)
    tables = []
    original = sz.midpoints

    def counted(corners, gamma):
        tables.append(corners.shape)
        return original(corners, gamma)
    monkeypatch.setattr(sz, "midpoints", counted)
    entered = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            entered[frame.f_code] += 1
    sys.setprofile(profile)
    try:
        ((_, op),) = sz.operators(f, "cutoff", [6], 1)
    finally:
        sys.setprofile(None)
    assert entered[sz.cell_kernels.__code__] == chunks
    assert entered[sz.sampled_kernels.__code__] == len(groups)
    assert entered[schur.group_matrices.__code__] == 0
    assert entered[sz.basis_columns.__code__] == 0
    assert len(op.groups) == len(groups)
    assert [len(part.kernels) for part in op.groups] == [len(group) for group in groups]
    # one corner column per word, chunks x levels steps in all
    assert tables == steps


def _chunk_sizes(monkeypatch):
    """The word counts of the chunks that `sampled_blocks` extends from
    here on, one per call of `corner_column`."""
    sizes = []
    original = sz.corner_column

    def counted(gammas):
        sizes.append(len(gammas))
        return original(gammas)
    monkeypatch.setattr(sz, "corner_column", counted)
    return sizes


CHUNK_GROUPS = [("two", 1), ("five", 1), ("five", 2), ("six", 3), ("five", 4)]


@pytest.mark.parametrize("m_q", [6, 7])
@pytest.mark.parametrize("series,birth", CHUNK_GROUPS)
def test_chunked_group_is_bit_identical(monkeypatch, series, birth, m_q):
    # budgets of 1, 2 and 3 sign words stack into exactly the blocks,
    # log-det, eigenvalues and counts of the group built at once, lone last
    # words included: every word's kernels and blocks are its own matrix
    # products
    f = SAMPLED
    group = next(g for g in enumerate_spectrum(m_q) if (g.series, g.birth) == (series, birth))
    per_word = _word_bytes(group, m_q)
    built = {}
    for size in (len(group), 1, 2, 3):
        monkeypatch.setattr(sz, "CHUNK_BYTES", size * per_word)
        assert sz.chunk_words(group, m_q) == size
        sizes = _chunk_sizes(monkeypatch)
        built[size] = sz.compressed_operator(f, [group], m_q, 1)
        assert sum(sizes) == len(group) and max(sizes) == min(size, len(group))
    whole = built[len(group)]
    for size in (1, 2, 3):
        op = built[size]
        assert len(op.groups) == 1 and op.groups[0].below == whole.groups[0].below
        assert np.array_equal(op.groups[0].kernels, whole.groups[0].kernels)
        assert np.array_equal(cell_ordered(op.groups[0]), cell_ordered(whole.groups[0]))
        assert sz.log_det(op) == sz.log_det(whole)
        assert np.array_equal(sz.operator_eigenvalues(op), sz.operator_eigenvalues(whole))
        assert (op.localized, op.dimension) == (whole.localized, whole.dimension)


def test_matrices_hold_one_level_of_cells():
    # the 5-series born at 4, eight words at m_q=8: building the matrices
    # from the kernels holds the whole 3 x 3 forms of the birth-cells (1.5
    # times the kernels) and one level's matrices at a time, with no product
    # of the stack's size besides: 2.1 times the kernels in all here
    group = next(g for g in enumerate_spectrum(7) if (g.series, g.birth) == ("five", 4))
    topo = top.level_topology(8)
    fvals = SAMPLED.sample(topo)
    kernels = sz.cell_kernels(sz.cell_weights(fvals, 4, 8), _corner_column(group, 8), 4)
    kernels /= _gram_factors(group, 8)[:, None, None]
    assert len(sz.tree_layout("five", 4)) == 3
    schur.group_matrices("five", 4, None, kernels)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        schur.group_matrices("five", 4, None, kernels)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * kernels.nbytes, (peak, kernels.nbytes)


def _three_corner_columns(group, m_q):
    """(vertices of V_{m_q - birth}, G, 3): the unit vectors of the three
    corners of V_0 extended together with every word's gammas, the T that
    `cell_kernels` built before it read two columns through the rotation."""
    t = np.broadcast_to(np.eye(3)[:, None], (3, len(group), 3))
    for level in range(1, m_q - group.birth + 1):
        t = extend_eigenfunction(t, level, group.gamma(group.birth + level))
    return t


@pytest.mark.parametrize("m", range(2, 8))
def test_rotated_corner_columns_are_the_extended_ones(m):
    # the extension rule is symmetric in a cell's corners, so the columns of
    # q_2 and q_3 are that of q_1 read through the rotation by -1 and -2
    # steps, bit for bit; the corner table's `corner_column` is the column
    # of q_1, bit for bit; and the kernels from one column and the rotated
    # weights are those of the three columns within 1e-14 of their largest
    f = SAMPLED
    for m_q in (m, m + 1):
        fvals = f.sample(top.level_topology(m_q))
        for group in enumerate_spectrum(m):
            t = _three_corner_columns(group, m_q)
            rot = top.rotation(m_q - group.birth)
            assert np.array_equal(t[:, :, 1], t[rot[2], :, 0])
            assert np.array_equal(t[:, :, 2], t[rot[1], :, 0])
            assert np.array_equal(_corner_column(group, m_q), t[:, :, 0].T)
            weights = sz.cell_weights(fvals, group.birth, m_q)
            old = np.stack([weights[0] @ (t[:, :, a] * t[:, :, b]) for a, b in sz._PAIRS], axis=-1)
            new = sz.cell_kernels(weights, _corner_column(group, m_q), m_q - group.birth)
            assert np.max(np.abs(new - old.swapaxes(0, 1))) <= 1e-14 * np.max(np.abs(old))


@pytest.mark.parametrize("series,birth", [("two", 1), ("five", 1)]
                         + [(s, j) for s in ("five", "six") for j in range(2, 9)])
def test_tree_corners_share_one_table_per_remainder(series, birth):
    # depth k of the tree of a birth at j is the table of R(j - k), the root
    # of the tree born at j - k: all of it for the 6-series and a view of
    # its column 2, K5, for the 5-series; and the root is the one cached
    # table of `decimation.remainder` (the trees cached before another test
    # cleared that cache are dropped first)
    sz.tree_corners.cache_clear()
    tree = sz.tree_corners(series, birth)
    assert [k for k, _ in tree] == list(range(len(cell_tree(series, birth))))[::-1]
    for (k, corners), (_, vals) in zip(tree[::-1], cell_tree(series, birth)):
        root = sz.tree_corners(series, birth - k)[-1]
        assert root[0] == 0
        if series == "six" or k == 0:
            assert corners is root[1]
        else:
            assert corners.base is root[1] and corners.shape[-1] == 1
        if series != "two":
            assert root[1] is dec.remainder(series, birth - k)
        assert not corners.flags.writeable
        assert np.array_equal(corners, vals[top.level_topology(birth - k).cell_vertices])


def _kernel_cases():
    for m in range(2, 8):
        for m_q in range(m, m + 4):
            yield "cutoff", m, m_q
    for j in range(2, 9):
        for m_q in range(j, j + 4):
            yield "five", j, m_q
    for j in range(3, 9):
        for m_q in range(j, j + 4):
            yield "six", j, m_q


# a multiplier of each kind: the recursion reads the first four at their
# own level, the cells of the birth level or of the scale, and samples the
# expression on V_{m_q}
MULTIPLIERS = (ConstantFunction(1.7), HarmonicFunction([1.2, 1.5, 1.9]),
               SimpleCellFunction([2.689, 2.516, 1.841]),
               SimpleCellFunction([2.1, 1.3, 2.9, 1.7, 2.4, 1.1, 2.6, 1.9, 1.5]), SAMPLED)


@pytest.mark.parametrize("series,index,m_q", list(_kernel_cases()))
def test_cell_kernel_blocks_match_the_extended_assembly(series, index, m_q):
    # every group's blocks, built from one cell kernel per sign word at the
    # birth level, against the assembly of its basis extended to V_{m_q}
    # (in long double: the float64 one is 2e-13 off at cutoff m=7, m_q=10),
    # within 1e-13 of the largest entry; N decides the localized count alone.
    # A constant or simple f keeps the levels above its scale: below it the
    # oracle's own blocks are diagonal, their diagonal the group's constants,
    # and every other entry of theirs, off the diagonal or coupling to an
    # ancestor, is 0 within 1e-13 of the largest entry.  So are the matrices
    # of the Schur recursion's steps, permuted to the basis's column order
    groups = (enumerate_spectrum(index) if series == "cutoff"
              else (sz._canonical_group(series, index, m_q),))
    topo = top.level_topology(m_q)
    exact = [long_double_basis(group, m_q) for group in groups]
    for f in MULTIPLIERS:
        fvals = f.sample(topo)[topo.interior_indices]
        oracle = [assemble_compressed(fvals, basis) for basis in exact]
        below = f.scale if hasattr(f, "coefficients") else math.inf
        for scale in (None, 1, 2):
            op = sz.compressed_operator(f, groups, m_q, scale)
            assert op.localized == sum(len(g) * sz.localized_columns(g, scale) for g in groups)
            for part, new, old in zip(op.groups, tree_blocks(op), oracle, strict=True):
                deep = sum(k >= below for k in old.depths)
                assert new.depths == old.depths[deep:]
                largest = max(np.max(np.abs(rows)) for rows in old.couplings)
                for a, b in zip(new.couplings, old.couplings[deep:], strict=True):
                    assert a.shape == b.shape
                    assert np.max(np.abs(a - b)) <= 1e-13 * largest, (f.label(), scale)
                diagonal = [np.diagonal(rows, axis1=-2, axis2=-1).reshape(len(rows), -1)
                            for rows in old.couplings[:deep]]
                diagonal = np.concatenate([np.empty((len(old.constants), 0))] + diagonal, axis=1)
                assert new.constants.shape == diagonal.shape
                assert np.max(np.abs(new.constants - diagonal), initial=0.0) <= 1e-13 * largest
                for rows in old.couplings[:deep]:
                    rest = rows.copy()
                    rest[..., np.arange(rows.shape[2]), np.arange(rows.shape[2])] = 0.0
                    assert np.max(np.abs(rest)) <= 1e-13 * largest, (f.label(), rows.shape)
                assert np.max(np.abs(cell_ordered(part) - dense_blocks(old))) <= 1e-13 * largest


def _recursion_cases():
    for m_q in (4, 6):
        for group in enumerate_spectrum(3):
            yield group, m_q
    for series, j in (("five", 4), ("six", 4)):
        yield sz._canonical_group(series, j, j + 3), j + 3


@pytest.mark.parametrize("f", MULTIPLIERS[1:4], ids=lambda f: f.label())
def test_recursion_below_the_sampling_level_matches_the_sampled_kernels(f):
    # at every level L from max(birth, scale) to m_q the recursive kernels
    # are the sampled ones at the same m_q, f read on V_{m_q} with nothing
    # set to 0, within 1e-13 of their largest entry: inside an L-cell a
    # harmonic f is its harmonic interpolant, a simple one its cell's value
    # but at the cell's corners
    for group, m_q in _recursion_cases():
        weights = sz.cell_weights(f.sample(top.level_topology(m_q)), group.birth, m_q)
        sampled = sz.cell_kernels(weights, _corner_column(group, m_q), m_q - group.birth)
        tensors = _birth_tensors(group, m_q)
        for level in range(max(group.birth, f.scale), m_q + 1):
            kernels = sz.recursive_kernels(group, f, level, m_q, tensors)
            assert kernels.shape == sampled.shape
            error = np.max(np.abs(kernels - sampled))
            assert error <= 1e-13 * np.max(np.abs(sampled)), (group.series, group.birth, m_q, level)


@pytest.mark.parametrize("bad", dec.FORBIDDEN_GAMMAS)
def test_recursion_refuses_a_forbidden_gamma(bad):
    # a forbidden gamma below L, where the corner tables of the L-cells take
    # it, and above L, where the tensors do, is refused with the message of
    # the vertex-order extension, as the birth-cells' `corner_tensors`, the
    # compression of a recursive and of a sampled f and the basis refuse it.
    # The sampled kernels' `corner_column` takes gammas that the compression
    # has refused
    with pytest.raises(ValueError) as expected:
        extend_eigenfunction(np.eye(3), 1, bad)
    group = sz._canonical_group("six", 3, 6)
    f = SimpleCellFunction(np.arange(1.0, 28.0))  # scale 3, so L = 3 or more
    for k in (4, 6):
        gammas = group.gammas.copy()
        gammas[:, k - group.birth] = bad
        bad_group = dataclasses.replace(group, gammas=gammas)
        with pytest.raises(ValueError) as refused:
            sz.recursive_kernels(bad_group, f, 5, 6, _birth_tensors(group, 6))
        assert str(refused.value) == str(expected.value)
        for refuse in (lambda: _birth_tensors(bad_group, 6),
                       lambda: sz.compressed_operator(f, [bad_group], 6, 1),
                       lambda: sz.compressed_operator(SAMPLED, [bad_group], 6, 1),
                       lambda: sz.basis_columns(bad_group, 6)):
            with pytest.raises(ValueError) as refused:
                refuse()
            assert str(refused.value) == str(expected.value)


def test_recursion_refuses_a_level_outside_birth_and_sampling():
    # a simple f whose cells are finer than the sampling level has no kernel
    # level; the command line refuses it before any operator is built
    group = sz._canonical_group("six", 3, 4)
    f = SimpleCellFunction(np.arange(1.0, 244.0))  # scale 5
    for level in (2, 5):
        with pytest.raises(ValueError, match=f"^kernel level {level} lies outside 3..4"):
            sz.recursive_kernels(group, f, level, 4, _birth_tensors(group, 4))
    with pytest.raises(ValueError, match="^kernel level 5 lies outside 3..4"):
        sz.compressed_operator(f, [group], 4, 1)


@pytest.mark.parametrize("f", MULTIPLIERS[:4], ids=lambda f: f.label())
def test_structured_multipliers_skip_the_sampling_level(f, monkeypatch):
    # constant, harmonic and simple f are read on the levels of their
    # kernels.  A cutoff sweep from cold caches, its recursion and its
    # integral included, makes no weights or chunks of V_{m_q}, no
    # extension and no level table: `SimpleCellFunction.cell_corners` reads
    # the owner rule off the cells' ranks.  A constant f keeps no tree
    # level, so it needs no kernel and no recursion either, and no f reads a
    # remainder table.  The dense basis of every group is its cell tree
    # extended, with no corner column or sampled kernel either
    groups = enumerate_spectrum(4)
    m_q = 7
    for module in (dec, sz, top, schur):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    asked = []
    for module in (top, lap, dec, sz, functions):
        if hasattr(module, "level_topology"):
            original = module.level_topology
            monkeypatch.setattr(module, "level_topology",
                                lambda m, original=original: asked.append(m) or original(m))
    rotated = []
    monkeypatch.setattr(sz, "rotation", lambda n: rotated.append(n) or top.rotation(n))
    entered = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            entered[frame.f_code] += 1
    sys.setprofile(profile)
    try:
        (record,) = sz.szego_sweep(f, "cutoff", [4], 1, m_q=m_q)
    finally:
        sys.setprofile(None)
    for name in ("cell_weights", "corner_column", "cell_kernels"):
        assert entered[getattr(sz, name).__code__] == 0, name
    levels = f.scale > 0 or isinstance(f, HarmonicFunction)
    assert entered[sz.recursive_kernels.__code__] == levels * len(groups)
    assert entered[schur.group_log_det.__code__] == levels * len(groups)
    assert entered[dec.remainder.__code__] == 0
    assert entered[sz.reference_integral.__code__] == 1
    assert asked == []
    assert record.dimension == top.interior_count(4)
    entered.clear()
    sys.setprofile(profile)
    try:
        dimension = sum(sz.basis_columns(group, m_q).shape[2] for group in groups)
    finally:
        sys.setprofile(None)
    assert entered[sz.basis_columns.__code__] == len(groups)
    for name in ("cell_weights", "corner_column", "cell_kernels", "recursive_kernels"):
        assert entered[getattr(sz, name).__code__] == 0, name
    assert dimension == sum(group.multiplicity for group in groups)
    assert rotated == []


def test_unit_kernels_are_the_words_alone(monkeypatch):
    # the factors rho that normalize every column are read off each word's
    # tensors, so a harmonic, simple and sampled f, the last in chunks of
    # two words, divide their kernels by the same ones, bit for bit
    groups = enumerate_spectrum(5)
    monkeypatch.setattr(sz, "CHUNK_BYTES", 2 * max(_word_bytes(g, 6) for g in groups))
    expected = np.concatenate([_gram_factors(g, 6) for g in groups])
    passed, chunks = [], []
    original, kernels = sz.gram_factors, sz.cell_kernels

    def recorded(tensors, gamma):
        passed[-1].append(original(tensors, gamma))
        return passed[-1][-1]

    def counted(weights, t, n):
        chunks.append(len(t))
        return kernels(weights, t, n)
    monkeypatch.setattr(sz, "gram_factors", recorded)
    monkeypatch.setattr(sz, "cell_kernels", counted)
    ops = []
    for f in MULTIPLIERS:
        passed.append([])
        ops.append(sz.compressed_operator(f, groups, 6, 1))
    assert passed[0] == []  # a constant f reaches no tree level
    assert len(chunks) > len(groups)  # the sampled f is built in chunks
    first = np.concatenate(passed[1])
    assert np.array_equal(first, expected)
    for rho in passed[2:]:
        assert np.array_equal(np.concatenate(rho), first)
    # each operator keeps its kernels divided by them
    for f, op in zip(MULTIPLIERS[1:-1], ops[1:-1]):
        for group, part, rho in zip(groups, op.groups, passed[1]):
            tensors = _birth_tensors(group, 6)
            raw = sz.recursive_kernels(group, f, max(group.birth, f.scale), 6, tensors)
            assert np.array_equal(part.kernels, raw / rho[:, None, None]), f.label()


@pytest.mark.parametrize("f", MULTIPLIERS, ids=lambda f: f.label())
def test_cell_constant_multipliers_build_only_the_levels_above_their_scale(f, monkeypatch):
    # from cold caches, a cutoff and a single sweep eliminate no level of
    # depth >= f.scale in the recursion for a constant or simple f, which
    # folds those, and every level for any other; a constant f reaches the
    # recursion never, and enters no corner tensors, recursive kernels or
    # remainder table
    for module in (sz, schur):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    dec.five_series_corners.cache_clear()
    reached = []
    original = schur._steps

    def recorded(series, birth, below):
        steps = list(original(series, birth, below))
        reached.append([depth for depth, (_, own, _) in steps if own])
        return steps
    monkeypatch.setattr(schur, "_steps", recorded)
    entered = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            entered[frame.f_code] += 1
    sys.setprofile(profile)
    try:
        sz.szego_sweep(f, "cutoff", [5], 1, m_q=6)
        sz.szego_sweep(f, "single", [6], 1, m_q=7)
    finally:
        sys.setprofile(None)
    if not hasattr(f, "coefficients"):
        assert max(map(max, reached)) == 4  # the tree of six j=6 is 5 levels deep
        return
    assert (reached == []) == (f.scale == 0)
    assert all(k < f.scale for depths in reached for k in depths), reached
    if f.scale == 0:
        for name in ("corner_tensors", "recursive_kernels"):
            assert entered[getattr(sz, name).__code__] == 0, name
        assert entered[dec.remainder.__code__] == 0


# a cell-constant f of scale 2 with nine distinct coefficients
SCALE_TWO = SimpleCellFunction([1.0 + 0.1 * i for i in range(9)])


@pytest.mark.parametrize("mode,index", [("single", j) for j in range(2, 8)]
                         + [("cutoff", m) for m in range(1, 7)])
def test_eigenvalues_match_the_dense_oracle(mode, index):
    # eigvalsh of each group's tree levels and the constants, repeated once
    # per eigenspace, are the eigenvalues of the dense block-diagonal matrix
    # within 1e-13 of the largest
    for f in (MULTIPLIERS[2], SCALE_TWO, MULTIPLIERS[0]):
        ((_, op),) = sz.operators(f, mode, [index], None)
        dense = np.linalg.eigvalsh(dense_matrix(op))
        sigma = sz.operator_eigenvalues(op)
        assert sigma.shape == dense.shape == (op.dimension,)
        assert np.max(np.abs(sigma - dense)) <= 1e-13 * np.max(np.abs(dense)), f.label()


@pytest.mark.parametrize("m", range(2, 9))
def test_unit_kernels_are_the_sampled_kernels_of_one(m):
    # every column's quadrature norm, its square summed over the
    # birth-cells against the sampled kernel of the share row (1/2 at a
    # birth-cell's corners and 1 elsewhere) in long double, is
    # sqrt(w(m_q) rho) of its word within 1.6e-15 relative (1.52e-15 at
    # m = 8; the squares within twice that): the kernel is symmetric in
    # the corners, and a column of plain norm 1 sums u^2 over the cells to
    # 2 and u u' to (4 - gamma) / 2.  Against a long-double extension,
    # sqrt(rho) is 1.2e-15 off at m = 8, m_q = 9
    for m_q in (m, m + 1):
        w = top.interior_weight(m_q)
        for group in enumerate_spectrum(m):
            n = m_q - group.birth
            share = np.where(top.level_topology(n).boundary_mask, 0.5, 1.0)[None]
            sampled = sz.cell_kernels([share] * 3, _corner_column(group, m_q), n)[:, 0]
            sampled = sampled[:, sz._SYMMETRIC].astype(np.longdouble)
            rho = _gram_factors(group, m_q)
            assert rho.shape == (len(group),)
            for _, u in sz.tree_corners(group.series, group.birth):
                u = u.astype(np.longdouble)
                norms = np.sqrt(w * np.einsum("xac,gab,xbc->gc", u, sampled, u))
                error = np.max(np.abs(norms / np.sqrt(w * rho[:, None]) - 1.0))
                assert error <= 1.6e-15, (group.series, group.birth, m_q, error)


def test_compression_refuses_a_wrong_multiplicity():
    # the cell tree's columns are counted against the group's multiplicity
    # before anything is built (`localized_columns`)
    group = dataclasses.replace(sz._canonical_group("six", 4, 5), multiplicity=40)
    with pytest.raises(AssertionError, match="expected 40"):
        sz.compressed_operator(ConstantFunction(1.0), [group], 5, 2)


@pytest.mark.parametrize("m_q", range(1, 10))
def test_reference_integral_reads_the_finer_level_off_the_cells(m_q):
    # the integral is the quadrature of level m_q + 1, read off the level-m_q
    # cells: an expression's midpoints of them are the new vertices of level
    # m_q + 1, bit for bit, and a harmonic f gives their corners
    # (`cell_corners`) and its midpoints by the harmonic rule, with no
    # `midpoints` of its own
    topo, fine = top.level_topology(m_q), top.level_topology(m_q + 1)
    midpoints = top.cell_embedding(m_q + 1, m_q)[:, [4, 2, 1]]
    expression = ExpressionFunction("1.5 + x * y + 0.3 * sin(7 * x)")
    assert np.array_equal(expression.midpoints(topo),
                          expression.sample(fine)[midpoints])
    assert not hasattr(HarmonicFunction, "midpoints")
    for f in (HarmonicFunction([1.2, 1.5, 1.9]), expression):
        values = f.sample(fine)
        expected = float(top.quadrature(m_q + 1) @ np.log(values))
        assert abs(sz.reference_integral(f, np.log, m_q + 1) - expected) <= 1e-14 * abs(expected)


def test_cutoff_peak_memory_is_bounded_by_the_chunk_budget():
    # cutoff m=7 at m_q=8 with the tables and remainders built.  For a
    # sampled f a chunk's parts take at most CHUNK_BYTES = B; compressing a
    # tree level holds one array of the level's size and one of an
    # ancestor's, each at most B (extending and normalizing hold less); the
    # fourth B covers a lone last word joined to a chunk, the f sample, the
    # blocks built so far and the log-det.  Building every group at once
    # peaked at 28 MiB, chunks at B = 1.5 MiB at 3.5 MiB (now 1.8 MiB).  The
    # recursive kernels of a harmonic f hold 3^birth kernels per word and no
    # table of V_{m_q}: 1.1 MiB
    groups = enumerate_spectrum(7)
    for f in (HarmonicFunction([1.2, 1.5, 1.9]), SAMPLED):
        sz.log_det(sz.compressed_operator(f, groups, 8, 1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sz.log_det(sz.compressed_operator(f, groups, 8, 1))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 4 * sz.CHUNK_BYTES, (f.label(), peak)
