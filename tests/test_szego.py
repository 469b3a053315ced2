import math
import tracemalloc

import numpy as np
import pytest

from sgszego import cli
from sgszego import decimation as dec
from sgszego import szego as sz
from sgszego import topology as top
from sgszego.decimation import birth_groups, enumerate_spectrum, make_descriptor
from sgszego.eigenbasis import localize_basis
from sgszego.functions import ConstantFunction, HarmonicFunction, SimpleCellFunction

from subspaces import FunctionSum, index_of, scale_cells


def test_identity_for_constant_one():
    desc = make_descriptor("six", 2, (1,))
    op = sz.compressed_operator(ConstantFunction(1.0), [desc], 3, None)
    assert np.max(np.abs(op.matrix - np.eye(op.dimension))) < 1e-10


def test_scaling_for_constant():
    c = 2.7
    desc = make_descriptor("five", 2, (-1,))
    op = sz.compressed_operator(ConstantFunction(c), [desc], 3, None)
    d = op.dimension
    assert np.max(np.abs(op.matrix - c * np.eye(d))) < 1e-10
    assert sz.log_det(op) == pytest.approx(d * math.log(c), abs=1e-10)


def test_simple_function_localized_diagonal():
    # a localized vector supported in cell (k,) sees a scale-1 simple f as
    # multiplication by its coefficient a_k
    f = SimpleCellFunction([1.0, 2.0, 3.0])
    desc = make_descriptor("six", 3, (1,))
    basis = localize_basis((desc,), 4, 1)
    op = sz.compressed_operator(f, [desc], 4, 1)
    # localized column i lies in the 1-cell of rank cell[i], the word (cell[i] + 1,)
    cell = scale_cells(basis, 1).tolist()
    cell += [None] * basis.nonlocalized_count
    assert basis.localized_count > 0
    for i in range(basis.localized_count):
        assert op.matrix[i, i] == pytest.approx(f.coefficients[cell[i]], abs=1e-10)
        for jj in range(basis.dimension):
            if jj != i and cell[jj] != cell[i]:
                assert abs(op.matrix[i, jj]) < 1e-10


def test_log_det_matches_eigenvalue_sum():
    f = HarmonicFunction([1.0, 1.5, 2.0])
    desc = make_descriptor("six", 2, (1, -1))
    op = sz.compressed_operator(f, [desc], 4, None)
    ld = sz.log_det(op)
    via_eigs = float(np.sum(np.log(sz.operator_eigenvalues(op))))
    assert abs(ld - via_eigs) / abs(via_eigs) < 1e-8


def test_log_det_small_matrices():
    assert sz.log_det(np.eye(4)) == 0.0
    assert sz.log_det(np.diag([1.0, 2.0, 3.0])) == pytest.approx(math.log(6.0))
    with pytest.raises(sz.NotPositiveDefiniteError):
        sz.log_det(np.diag([1.0, -1.0]))


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
    ((j, (desc,), level),) = sz.sweep_plan("single", [7], 4)
    assert (j, desc.birth, desc.level, level) == (7, 7, 7, 7)
    ((_, (desc,), level),) = sz.sweep_plan("single", [4], 1, "five", m_q=8)
    assert (desc.series, desc.birth, desc.level, level) == ("five", 4, 8, 8)
    ((m, descriptors, level),) = sz.sweep_plan("cutoff", [6], 1)
    assert (m, level) == (6, 7)
    assert descriptors == enumerate_spectrum(6).entries
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
    desc = make_descriptor("six", 3, (1,))
    op = sz.compressed_operator(f, [desc], 4, None)
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
    full = op.matrix
    total = sz.log_det(full)
    blocks = sum(sz.log_det(mat) for stack in map(sz.dense_blocks, op.blocks) for mat in stack)
    assert abs(total - blocks) / abs(total) < 1e-8
    start = 0
    for mat in (mat for stack in map(sz.dense_blocks, op.blocks) for mat in stack):
        stop = start + mat.shape[0]
        assert np.array_equal(full[start:stop, start:stop], mat)
        start = stop
    assert start == op.dimension
    dense = np.linalg.eigvalsh(op.matrix)
    assert np.max(np.abs(sz.operator_eigenvalues(op) - dense)) < 1e-12


def test_spectral_functionals():
    c = 1.3
    desc = make_descriptor("six", 2, (1,))
    op = sz.compressed_operator(ConstantFunction(c), [desc], 3, None)
    d = op.dimension
    assert sz.spectral_functional(op, math.log) == pytest.approx(sz.log_det(op) / d, abs=1e-12)
    assert sz.spectral_functional(op, lambda s: s * s) == pytest.approx(c * c, abs=1e-10)
    f = HarmonicFunction([1.0, 1.5, 2.0])
    op2 = sz.compressed_operator(f, [desc], 3, None)
    assert sz.spectral_functional(op2, lambda s: s) * d == pytest.approx(
        float(np.trace(op2.matrix)), abs=1e-12
    )
    # the average eigenvalue stays in the range of f
    mean = sz.spectral_functional(op2, lambda s: s)
    assert 1.0 - 1e-12 <= mean <= 2.0 + 1e-12


def test_equidistribution_constant():
    c = 2.0
    desc = make_descriptor("six", 3, (1,))
    op = sz.compressed_operator(ConstantFunction(c), [desc], 4, None)
    spectral, riemann, gap = sz.equidistribution_compare(op, ConstantFunction(c), lambda s: s)
    assert spectral == pytest.approx(c, abs=1e-10)
    assert riemann == pytest.approx(c, abs=1e-14)
    assert gap < 1e-10


def test_equidistribution_gap_shrinks():
    f = HarmonicFunction([1.0, 1.5, 2.0])
    gaps = []
    for j in (2, 3, 4):
        m_q = j + 1
        desc = sz._canonical_descriptor("six", j, m_q)
        op = sz.compressed_operator(f, [desc], m_q, None)
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
    points = index_of(topo, top.lattice_keys(np.arange(3), 1, 1) << 2)
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
@pytest.mark.parametrize("m", range(3, 7))
def test_full_compression_at_level_m_is_the_riemann_mean(m, N):
    # at m_q = m the level-m eigenspaces span the interior of V_m and the
    # quadrature weight is uniform there, so the full compression onto the
    # bases of every birth group together has log det / d equal to the mean
    # of log f over the interior; the cutoff operator is its block diagonal
    topo = top.level_topology(m)
    groups = birth_groups(enumerate_spectrum(m).entries)
    vectors = np.concatenate(
        [col for group in groups for col in localize_basis(group, m, N).vectors], axis=1)
    assert vectors.shape == (len(topo.interior_indices),) * 2
    for f in (HarmonicFunction([1.2, 1.5, 1.9]), SimpleCellFunction([2.689, 2.516, 1.841])):
        fvals = f.sample(topo)[topo.interior_indices]
        full = top.interior_weight(m) * (vectors.T * fvals) @ vectors
        mean = float(np.mean(np.log(fvals)))
        assert abs(sz.log_det(full) / len(full) - mean) <= 1e-13 * abs(mean), (m, N, f.label())
        op = sz.compressed_operator(f, enumerate_spectrum(m).entries, m, N)
        sizes = [group.dimension for group in op.blocks for _ in range(group.eigenspaces)]
        eigenspace = np.repeat(np.arange(len(sizes)), sizes)
        inside = eigenspace[:, None] == eigenspace
        assert np.max(np.abs(np.where(inside, full, 0.0) - op.matrix)) <= 1e-13 * np.max(fvals)


def _word_bytes(group, m_q):
    """Bytes of the parts `localize_basis` builds for one sign word."""
    return sum(part.nbytes for part in localize_basis(group[:1], m_q, 1).parts)


def test_cutoff_builds_birth_groups_in_chunks(monkeypatch):
    # one basis and one assembly per chunk of a (series, birth) group, one
    # stacked block per group, and extensions that grow with chunks x tree
    # depths x levels, not with descriptors
    f = HarmonicFunction([1.2, 1.5, 1.9])
    descriptors = enumerate_spectrum(6).entries
    groups = birth_groups(descriptors)
    assert (len(groups), len(descriptors)) == (12, 111)
    m_q = sz.sweep_plan("cutoff", [6], 1)[0][2]
    budget = 1 << 18  # splits the early-born groups of m = 6 at m_q = 7
    monkeypatch.setattr(sz, "CHUNK_BYTES", budget)
    chunks = extensions = 0
    for group in groups:
        # two words at least in a group of several, a lone last word joining
        # the chunk before it
        size = max(min(2, len(group)), budget // _word_bytes(group, m_q))
        count = -(-len(group) // size) - (len(group) > size and len(group) % size == 1)
        assert [len(chunk) for chunk in sz.word_chunks(group, m_q)][:-1] == [size] * (count - 1)
        chunks += count
        # each tree depth is extended from V_{birth - depth} to V_{m_q - depth}
        extensions += count * len(dec.cell_tree(group[0].series, group[0].birth)) \
            * (m_q - group[0].birth)
    assert chunks > len(groups)
    calls = {"localize_basis": 0, "assemble_compressed": 0, "extend_values": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(sz, "localize_basis")
    counted(sz, "assemble_compressed")
    counted(dec, "extend_values")
    ((_, op),) = sz.operators(f, "cutoff", [6], 1)
    assert calls["localize_basis"] == calls["assemble_compressed"] == chunks
    assert len(op.blocks) == len(groups)
    assert [block.eigenspaces for block in op.blocks] == [len(group) for group in groups]
    # the remainders are cached by the counts above, so every extension is
    # a chunk's (one group per descriptor made 615 calls cold)
    assert calls["extend_values"] == extensions, (calls, extensions)


CHUNK_GROUPS = [("two", 1), ("five", 1), ("five", 2), ("six", 3), ("five", 4)]


@pytest.mark.parametrize("m_q", [6, 7])
@pytest.mark.parametrize("series,birth", CHUNK_GROUPS)
def test_chunked_group_is_bit_identical(monkeypatch, series, birth, m_q):
    # budgets of 1 and 3 sign words stack into exactly the blocks, log-det,
    # eigenvalues and counts of the group built at once; a budget of one
    # word builds two, and a lone last word joins the chunk before it, since
    # einsum sums the squares of a lone one-column word in another order
    f = HarmonicFunction([1.2, 1.5, 1.9])
    group = next(g for g in birth_groups(enumerate_spectrum(m_q).entries)
                 if (g[0].series, g[0].birth) == (series, birth))
    per_word = _word_bytes(group, m_q)
    built = {}
    for size in (len(group), 1, 3):
        monkeypatch.setattr(sz, "CHUNK_BYTES", size * per_word)
        assert sz.chunk_words(group, m_q) == max(size, 2)
        sizes = [len(chunk) for chunk in sz.word_chunks(group, m_q)]
        assert sum(sizes) == len(group) and min(sizes) >= 2 and max(sizes) <= max(size, 2) + 1
        built[size] = sz.compressed_operator(f, group, m_q, 1)
    whole = built[len(group)]
    for size in (1, 3):
        op = built[size]
        assert len(op.blocks) == 1 and op.blocks[0].depths == whole.blocks[0].depths
        assert all(np.array_equal(a, b)
                   for a, b in zip(op.blocks[0].couplings, whole.blocks[0].couplings))
        assert sz.log_det(op) == sz.log_det(whole)
        assert np.array_equal(sz.operator_eigenvalues(op), sz.operator_eigenvalues(whole))
        assert (op.localized, op.dimension) == (whole.localized, whole.dimension)


def test_assembly_holds_one_level_and_one_ancestor_copy():
    # the 5-series born at 4, eight words at m_q=8: assembling holds one
    # level's product with f and one ancestor's gathered part at a time,
    # each at most the root part; with a level's copies alive while the next
    # level's were made, the transient was 2.1 times the parts
    f = HarmonicFunction([1.2, 1.5, 1.9])
    group = next(g for g in birth_groups(enumerate_spectrum(7).entries)
                 if (g[0].series, g[0].birth) == ("five", 4))
    topo = top.level_topology(8)
    fvals = f.sample(topo)[topo.interior_indices]
    basis = localize_basis(group, 8, 1)
    sz.assemble_compressed(fvals, basis)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sz.assemble_compressed(fvals, basis)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    parts = sum(part.nbytes for part in basis.parts)
    assert peak < 1.5 * parts, (peak, parts)


def test_cutoff_peak_memory_is_bounded_by_the_chunk_budget():
    # cutoff m=7 at m_q=8 with the tables and remainders built.  A chunk's
    # parts take at most CHUNK_BYTES = B; compressing a tree level holds one
    # array of the level's size and one of an ancestor's, each at most B
    # (extending and normalizing hold less); the fourth B covers a lone last
    # word joined to a chunk, the f sample, the blocks built so far and the
    # log-det.  Building every group at once peaked at 28 MiB; 3.5 MiB at
    # B = 1.5 MiB
    f = HarmonicFunction([1.2, 1.5, 1.9])
    descriptors = enumerate_spectrum(7).entries
    sz.log_det(sz.compressed_operator(f, descriptors, 8, 1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sz.log_det(sz.compressed_operator(f, descriptors, 8, 1))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * sz.CHUNK_BYTES, peak
