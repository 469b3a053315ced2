"""End-to-end acceptance checks, one test per criterion.

Run with -s to see one PASS line per criterion.  Tolerances are pinned here
and intentionally duplicated from the library defaults.
"""
import json
import math
import time

import numpy as np

from sgszego import cli
from sgszego import decimation as dec
from sgszego import laplacian as lap
from sgszego import szego as sz
from sgszego import topology as top
from sgszego.functions import ConstantFunction, HarmonicFunction, SimpleCellFunction

from subspaces import (birth_space, cached_dense_spectrum, dense_matrix, eigenfunctions_at_level,
                       on_vertices, one_level, scale_cells, words_of)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_spectrum_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 6):
        groups = dec.enumerate_spectrum(m)
        assert sum(len(g) * g.multiplicity for g in groups) == (3 ** (m + 1) - 3) // 2
        mine = np.sort(np.concatenate([np.repeat(g.gammas[:, -1], g.multiplicity) for g in groups]))
        dense, _ = cached_dense_spectrum(m)
        worst = max(worst, float(np.max(np.abs(np.sort(dense) - mine))))
    assert worst < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(1, f"spectrum multisets match dense oracle for m=1..5, "
               f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_trace_identity():
    worst = 0.0
    for m in range(1, 6):
        evals, _ = cached_dense_spectrum(m)
        n = (3 ** (m + 1) - 3) // 2
        worst = max(worst, abs(float(evals.sum()) - 4.0 * n) / (4.0 * n))
    assert worst < 1e-8
    _report(2, f"trace of -Delta_m equals 4 x interior count for m<=5, "
               f"max relative deviation {worst:.2e}")


def test_criterion_3_random_extensions():
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    # every eigenvalue of the level as a group of one word, in lambda order
    tables = {m: sorted((words_of(group, slice(g, g + 1)) for group in dec.enumerate_spectrum(m)
                         for g in range(len(group))), key=lambda word: word.lam[0])
              for m in (3, 4, 5)}
    while checked < 200:
        m = int(rng.choice([3, 4, 5]))
        word = tables[m][int(rng.integers(len(tables[m])))]
        target = m + int(rng.integers(0, 2))
        birth = birth_space(word.series, word.birth)
        vals = on_vertices(target, eigenfunctions_at_level(word, target, birth))[:, 0]
        combo = vals @ rng.normal(size=vals.shape[1])
        r = lap.eigen_residual(target, combo, word.gamma(target)[0])
        worst = max(worst, r)
        assert r <= 1e-9
        checked += 1
    _report(3, f"200 random extended eigenfunctions, max residual {worst:.2e}")


def test_criterion_4_six_series_dimensions():
    for j in range(2, 7):
        m_q = min(j + 1, sz.MQ_CAP)
        group = sz._canonical_group("six", j, m_q)
        for N in range(1, j):
            d_loc = (3**j - 3 ** (N + 1)) // 2
            per_cell = (3 ** (j - N) - 3) // 2
            assert sz.localized_columns(group, N) == d_loc, (j, N)
            # each of the 3^N cells holds per_cell columns
            counts = np.bincount(scale_cells(group, N), minlength=3**N)
            assert counts.tolist() == [per_cell] * 3**N, (j, N)
    _report(4, "6-series localized dimensions (3^j - 3^(N+1))/2 with per-cell "
               "(3^(j-N) - 3)/2 exact for all 1 <= N < j <= 6")


def test_criterion_5_five_series_resolution():
    hits_minus = 0
    hits_plus = 0
    cases = []
    for j in range(2, 7):
        m_q = min(j + 1, sz.MQ_CAP)
        group = sz._canonical_group("five", j, m_q)
        for N in range(1, min(j, 3)):
            alpha = group.multiplicity - sz.localized_columns(group, N)
            cand_minus = (3**N - 3) // 2
            cand_plus = (3**N + 3) // 2
            hits_minus += alpha == cand_minus
            hits_plus += alpha == cand_plus
            cases.append((j, N, alpha))
    assert hits_plus == len(cases) and hits_minus == 0, cases
    _report(5, f"5-series non-localized dimension matches (3^N + 3)/2 in all "
               f"{len(cases)} (j, N) cases; (3^N - 3)/2 in none")


def test_criterion_6_localization_bound():
    t0 = time.perf_counter()
    f = SimpleCellFunction([1.0, 2.0, 3.0])
    records = sz.szego_sweep(f, "single", range(2, 7), 1)
    assert [r.index for r in records] == [2, 3, 4, 5, 6]
    norm_log = f.cell_integral(lambda v: abs(math.log(v)))
    sup = max(f.coefficients)
    for r in records:
        bound = (r.nonlocalized_dim / r.dimension) * (norm_log + sup)
        assert r.error <= bound + 1e-12, (r.index, r.error, bound)
    scaled = [r.error * r.dimension for r in records]
    ratio = max(scaled) / min(scaled)
    assert ratio < 10.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, f"logdet bound holds for simple f, j=2..6; d*error max/min "
               f"ratio {ratio:.2f} < 10, {elapsed:.1f}s")


def test_criterion_7_single_eigenspace_rate():
    f = HarmonicFunction([1.0, 1.5, 2.0])
    records = sz.szego_sweep(f, "single", range(2, 7), 1)
    rate, r2 = sz.fit_rate(records)
    beta = sz.beta_exponent(1.0)
    assert rate >= 0.8 * beta, (rate, beta)
    _report(7, f"single-eigenspace decay exponent {rate:.3f} >= 0.8*beta = "
               f"{0.8 * beta:.4f} (beta {beta:.4f}, R^2 {r2:.3f})")


def test_criterion_8_cutoff_rate_and_block_consistency():
    f = HarmonicFunction([1.0, 1.5, 2.0])
    records = sz.szego_sweep(f, "cutoff", range(2, 6), 1)
    errs = [r.error for r in records]
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    ((_, op),) = sz.operators(f, "cutoff", [4], 1)
    full = dense_matrix(op)
    total = sz.log_det(one_level(full))
    blocks = sum(sz.log_det(one_level(mat))
                 for stack in map(sz.dense_blocks, op.blocks) for mat in stack)
    rel = abs(total - blocks) / abs(total)
    assert rel < 1e-8
    start = 0
    for mat in (mat for stack in map(sz.dense_blocks, op.blocks) for mat in stack):
        stop = start + mat.shape[0]
        assert np.array_equal(full[start:stop, start:stop], mat)
        start = stop
    rate, r2 = sz.fit_rate(records)
    bt = sz.beta_tilde_exponent(1.0)
    _report(8, f"cutoff errors decrease monotonically m=2..5; block logdet "
               f"relative gap {rel:.2e}; fitted exponent {rate:.3f} vs "
               f"beta-tilde {bt:.4f} (R^2 {r2:.3f})")


def test_criterion_9_equidistribution():
    f = HarmonicFunction([1.0, 1.5, 2.0])
    funcs = {"x": lambda s: s, "x^2": lambda s: s * s}
    gaps = {name: [] for name in funcs}
    for j in (2, 3, 4, 5, 6):
        m_q = min(j + 1, sz.MQ_CAP)
        group = sz._canonical_group("six", j, m_q)
        op = sz.compressed_operator(f, [group], m_q, None)
        for name, func in funcs.items():
            gaps[name].append(sz.equidistribution_compare(op, f, func)[2])
    for name in funcs:
        tail = gaps[name][2:]
        assert all(b < a for a, b in zip(tail, tail[1:])), (name, gaps[name])
        assert gaps[name][-1] < gaps[name][0], (name, gaps[name])
        assert gaps[name][-1] < 0.02, (name, gaps[name][-1])

    m = 5
    ((_, op_c),) = sz.operators(f, "cutoff", [m], None)
    cutoff_gaps = {n: sz.equidistribution_compare(op_c, f, fn)[2] for n, fn in funcs.items()}
    assert all(g < 0.02 for g in cutoff_gaps.values()), cutoff_gaps

    c = ConstantFunction(1.7)
    group = sz._canonical_group("six", 3, 4)
    op = sz.compressed_operator(c, [group], 4, None)
    for name, func in funcs.items():
        assert sz.equidistribution_compare(op, c, func)[2] < 1e-9
    _report(9, f"equidistribution gaps decreasing, largest-j gaps "
               f"x: {gaps['x'][-1]:.2e}, x^2: {gaps['x^2'][-1]:.2e}; cutoff m=5 "
               f"x: {cutoff_gaps['x']:.2e}, x^2: {cutoff_gaps['x^2']:.2e}; "
               f"constant f exact")


def test_criterion_10_resistance_metric():
    worst = 0.0
    for m in range(6):
        rc = lap.ResistanceComputer(m)
        b = np.nonzero(top.level_topology(rc.level).boundary_mask)[0]
        for x in range(3):
            for y in range(x + 1, 3):
                worst = max(worst, abs(rc.resistance(b[x], b[y]) - 2.0 / 3.0))
    assert worst < 1e-9
    rc = lap.ResistanceComputer(4)
    n = top.level_topology(rc.level).n_vertices
    idx = np.arange(n)
    R = rc.resistance(idx[:, None], idx[None, :])
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(1000):
        x, y, z = rng.choice(n, size=3, replace=False)
        if R[x, z] > R[x, y] + R[y, z] + 1e-12:
            violations += 1
    assert violations == 0
    _report(10, f"boundary resistances 2/3 within {worst:.2e} for m<=5; "
                f"0/1000 triangle violations")


def test_criterion_11_cli_determinism(tmp_path):
    argv = ["szego", "--mode", "single", "--series", "six", "--j", "2..4",
            "--N", "1", "--f", "simple:1,2,3", "--seed", "17"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(argv + ["--out", str(out)]) == 0
        outs.append(out)
    for name in ("szego_single.csv", "szego_single_loglog.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    s0 = json.loads((outs[0] / "summary.json").read_text())
    s1 = json.loads((outs[1] / "summary.json").read_text())
    assert s0["config_hash"] == s1["config_hash"]
    assert s0["results"] == s1["results"]
    _report(11, "identical config and seed reproduce byte-identical CSVs")
