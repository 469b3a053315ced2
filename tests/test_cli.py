import ast
import csv
import glob
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from sgszego import cli
from sgszego import decimation as dec
from sgszego import szego
from sgszego import topology as top
from sgszego.functions import parse_function_spec


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(argv):
    return cli.main(argv)


def _src_env():
    """The environment of a fresh interpreter that imports this checkout's sgszego."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _fresh_python(code):
    """The stripped standard output of `code` run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env=_src_env())
    return done.stdout.strip()


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    return lines


def test_spectrum_command(tmp_path):
    out = tmp_path / "run"
    assert _run(["spectrum", "--m", "4", "--out", str(out)]) == 0
    lines = _read_csv(out / "spectrum.csv")
    header = lines[1].split(",")
    mult = sum(int(line.split(",")[header.index("multiplicity")]) for line in lines[2:])
    assert mult == 120
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["total_multiplicity"] == 120


def test_topology_command(tmp_path):
    out = tmp_path / "topo"
    assert _run(["topology", "--m", "2", "--out", str(out)]) == 0
    assert (out / "vertices.csv").exists()
    assert (out / "cells.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["n_vertices"] == 15


def test_basis_command(tmp_path):
    out = tmp_path / "basis"
    rc = _run(["basis", "--series", "six", "--j", "3", "--N", "1", "--m-q", "4",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["dimension"] == 12
    assert summary["results"]["localized"] == 9
    assert summary["results"]["max_gram_deviation"] < 1e-10


def test_szego_single_command(tmp_path):
    out = tmp_path / "sz"
    rc = _run(["szego", "--mode", "single", "--series", "six", "--j", "2..4",
               "--N", "1", "--f", "simple:1,2,3", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["results"]["errors"]) == 3
    assert (out / "szego_single.csv").exists()
    assert (out / "szego_single_loglog.csv").exists()


def test_szego_constant_errors_tiny(tmp_path):
    out = tmp_path / "szc"
    rc = _run(["szego", "--mode", "single", "--series", "six", "--j", "2..4",
               "--N", "1", "--f", "constant:2", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert max(summary["results"]["errors"]) < 1e-9


def test_equidist_command(tmp_path):
    out = tmp_path / "eq"
    rc = _run(["equidist", "--mode", "single", "--series", "six", "--j", "2..3",
               "--f", "harmonic:1,1.5,2", "--F", "power:1", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["results"]["gaps"]) == 2


def test_resistance_command(tmp_path):
    out = tmp_path / "res"
    rc = _run(["resistance", "--m", "3", "--triples", "50", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["triangle_violations"] == 0
    assert summary["results"]["max_boundary_deviation"] < 1e-9
    assert summary["timings"]["resistance_s"] > 0.0
    assert summary["timings"]["peak_rss_mb"] > 0.0
    lines = _read_csv(out / "resistance.csv")
    for line in lines[2:]:
        assert abs(float(line.split(",")[2]) - 2.0 / 3.0) < 1e-9


@pytest.mark.parametrize("argv", [
    ["topology", "--m", "2"],
    ["spectrum", "--m", "3"],
    ["basis", "--series", "six", "--j", "3", "--N", "1", "--m-q", "4"],
    ["szego", "--mode", "cutoff", "--m", "2..3", "--N", "1", "--f", "harmonic:1,1.5,2"],
    ["equidist", "--mode", "single", "--j", "2..3", "--f", "harmonic:1,1.5,2"],
    ["resistance", "--m", "2", "--triples", "10"],
])
def test_every_command_reports_its_peak_memory(tmp_path, argv):
    # the peak resident set is a timing: outside the results and the hash
    out = tmp_path / "run"
    assert _run(argv + ["--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["timings"]["peak_rss_mb"] > 0.0
    assert "peak_rss_mb" not in summary["results"]


@pytest.mark.parametrize("platform,maxrss", [("linux", 50 << 10), ("darwin", 50 << 20)])
def test_peak_memory_in_mb_on_every_platform(tmp_path, monkeypatch, platform, maxrss):
    # macOS reports ru_maxrss in bytes, Linux in KiB
    monkeypatch.setattr(cli.sys, "platform", platform)
    monkeypatch.setattr(cli.resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=maxrss))
    out = tmp_path / "run"
    assert _run(["spectrum", "--m", "2", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["timings"]["peak_rss_mb"] == 50.0


def test_resistance_zero_triples(tmp_path):
    out = tmp_path / "res"
    assert _run(["resistance", "--m", "2", "--triples", "0", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"] == {"triangle_violations": 0, "triples": 0,
                                  "max_boundary_deviation": 0.0}


def test_resistance_command_level_nine(tmp_path):
    out = tmp_path / "res"
    assert _run(["resistance", "--m", "9", "--triples", "100", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["triangle_violations"] == 0
    lines = _read_csv(out / "resistance.csv")
    assert len(lines) == 5
    for line in lines[2:]:
        assert abs(float(line.split(",")[2]) - 2.0 / 3.0) < 1e-15


def test_equidist_log_matches_szego_logdet(tmp_path):
    # both commands compress f through the same builder, so the spectral
    # mean of log is the log-determinant per dimension
    common = ["--mode", "single", "--series", "six", "--j", "2..4", "--N", "1",
              "--f", "simple:1,2,3"]
    assert _run(["equidist", *common, "--F", "log", "--out", str(tmp_path / "eq")]) == 0
    assert _run(["szego", *common, "--out", str(tmp_path / "sz")]) == 0

    def column(path, name):
        rows = list(csv.DictReader(_read_csv(path)[1:]))
        return [(int(r["index"]), float(r[name])) for r in rows]

    spectral = column(tmp_path / "eq" / "equidist.csv", "spectral")
    logdet = column(tmp_path / "sz" / "szego_single.csv", "logdet_over_d")
    assert [j for j, _ in spectral] == [j for j, _ in logdet] == [2, 3, 4]
    for (_, a), (_, b) in zip(spectral, logdet):
        assert abs(a - b) < 1e-12


def _with_config(argv, tmp_path):
    """argv with a leading dict written to a --config file."""
    if not isinstance(argv[0], dict):
        return argv
    path = tmp_path / "config.json"
    path.write_text(json.dumps(argv[0]))
    return ["--config", str(path), *argv[1:]]


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--series", "six", "--j", "2", "--N", "2", "--m-q", "4"],
        ["szego", "--mode", "single", "--j", "2..3", "--N", "1", "--f", "simple:1,0,3"],
        ["szego", "--mode", "single", "--j", "2..3", "--N", "1", "--f", "constant:2",
         "--m-q", "9"],
        ["szego", "--mode", "single", "--N", "1", "--f", "constant:2"],
        ["spectrum"],
        ["szego", "--mode", "single", "--j", "8", "--f", "constant:2"],
        ["szego", "--mode", "cutoff", "--m", "8", "--f", "constant:2"],
        ["szego", "--mode", "single", "--j", "3", "--m-q", "2", "--f", "constant:2"],
        ["basis", "--series", "two", "--j", "3", "--N", "1", "--m-q", "4"],
        ["spectrum", "--m", "2", "--tol", "gram=abc"],
        ["szego", "--mode", "single", "--j", "2..3", "--N", "1", "--f", "expr:x+"],
        ["spectrum", "--m", "2", "--tol", "nosuch=1"],
        ["--config", "no-such-config.json", "spectrum", "--m", "2"],
        # 81 cells of f are finer than the sampling level 3 of j = 2
        ["szego", "--mode", "single", "--series", "six", "--j", "2", "--N", "1",
         "--f", "simple:" + ",".join(["1"] * 81)],
        ["szego", "--mode", "cutoff", "--m", "1", "--f", "simple:" + ",".join(["1"] * 27)],
        ["resistance", "--m", "2", "--triples", "-3"],
        ["resistance", "--m", "2", "--triples", "1000001"],
        ["resistance", "--m", "13"],
        ["topology", "--m", "13"],
        ["spectrum", "--m", "21"],
        ["resistance", "--m", "30"],
        ["topology", "--m", "30"],
        ["spectrum", "--m", "30"],
        # cutoff mode samples each level at its own default and ignores m_q
        ["szego", "--mode", "cutoff", "--m", "2", "--f", "harmonic:1,1.5,2", "--m-q", "5"],
        # a leading dict is written to a --config file: its fields are JSON typed
        [{"mode": "cutoff", "m": "2", "f": "harmonic:1,1.5,2", "m_q": 5}, "equidist"],
        [{"m": "abc"}, "spectrum"],
        [{"N": "2"}, "szego", "--mode", "single", "--j", "3", "--f", "constant:2"],
        [{"triples": "5"}, "resistance", "--m", "2"],
        [{"m": "3"}, "resistance"],
        [{"j": [2, "x"]}, "szego", "--mode", "single", "--f", "constant:2"],
        [{"j": "3"}, "basis", "--series", "six", "--N", "1", "--m-q", "4"],
        [{"f": 2}, "szego", "--mode", "single", "--j", "3"],
        [{"mode": "both"}, "szego", "--m", "2", "--f", "constant:2"],
        [{"seed": -1}, "resistance", "--m", "2"],
        [{"tolerances": [1]}, "spectrum", "--m", "2"],
        ["szego", "--mode", "cutoff", "--m", "abc", "--f", "constant:2"],
        ["equidist", "--mode", "cutoff", "--m", "2", "--f", "constant:2", "--F", ""],
        ["resistance", "--m", "2", "--seed", "-1"],
        # expressions that compile but cannot be evaluated to real values
        ["szego", "--mode", "single", "--j", "3", "--f", "expr:z+1"],
        ["szego", "--mode", "single", "--j", "3", "--f", "expr:x(1)"],
        ["szego", "--mode", "single", "--j", "3", "--f", 'expr:"a"'],
        ["equidist", "--mode", "single", "--j", "3", "--f", "expr:z"],
        # expressions whose shape depends on the length of x, not pointwise
        ["szego", "--mode", "single", "--j", "3", "--f", "expr:np.ones(3)+x"],
        ["szego", "--mode", "single", "--j", "3", "--f", "expr:x[:6]+1"],
        ["equidist", "--j", "2", "--f", "expr:x[:3]+1"],
        # a negative sampling level with an f that has no cell scale
        [{"m_q": -1}, "equidist", "--mode", "single", "--series", "five", "--j", "1",
         "--f", "expr:x+1", "--F", "log"],
        # tolerances that no measured value can be compared with, or that
        # summary.json cannot hold
        ["spectrum", "--m", "2", "--tol", "gram=nan"],
        ["spectrum", "--m", "2", "--tol", "gram=inf"],
        [{"tolerances": {"logdet_rel": -1e-8}}, "spectrum", "--m", "2"],
        # an --out that names a file, is empty, or lies under a file ({tmp}
        # stands for a directory that holds a file named "file"), and a
        # config file's out that is not a string
        ["spectrum", "--m", "2", "--out", "{tmp}/file"],
        ["spectrum", "--m", "2", "--out", ""],
        ["spectrum", "--m", "2", "--out", "{tmp}/file/run"],
        [{"out": 5}, "spectrum", "--m", "2"],
        # a --tol without =value, and one without a name
        ["spectrum", "--m", "2", "--tol", "gram"],
        ["spectrum", "--m", "2", "--tol", "=1"],
        # a negative index, a series outside the command's choices, unknown,
        # abbreviated and other commands' flags, a trailing flag with no
        # value and a non-integer level
        ["szego", "--mode", "single", "--j", "-1..3", "--f", "harmonic:1,2,3"],
        ["szego", "--mode", "single", "--series", "two", "--j", "3", "--f", "constant:2"],
        ["spectrum", "--m", "2", "--nosuch", "1"],
        ["szego", "--mode", "single", "--ser", "six", "--j", "3", "--f", "constant:2"],
        ["resistance", "--out", "{tmp}", "--m", "2", "--triples"],
        ["resistance", "--m", "abc"],
        ["resistance", "--m", "2", "--f", "x"],
        # a missing or unknown command, which a config file cannot supply
        [{"command": "spectrum", "m": 2}],
        ["nosuch", "--m", "2"],
        # file keys that no command reads: a misspelt field, and tol, which
        # only a flag gives (a file holds tolerances), as a list or a string
        [{"seires": "five", "mode": "single", "j": "3", "f": "constant:2"}, "szego"],
        [{"tol": ["gram=1e-6"]}, "spectrum", "--m", "2"],
        [{"tol": "gram=1e-6"}, "spectrum", "--m", "2"],
    ],
)
def test_invalid_configs_exit_2(argv, tmp_path, capsys):
    given = "--out" in argv or isinstance(argv[0], dict) and "out" in argv[0]
    argv = _with_config(argv, tmp_path)
    (tmp_path / "file").write_text("")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert _run(argv if given else argv + ["--out", str(tmp_path)]) == 2
    # one JSON record, no usage text and no traceback
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "invalid config"


@pytest.mark.parametrize("argv,violation", [
    (["spectrum", "--m", "2", "--tol", "gram"], "tol: name=value required, e.g. gram=1e-10"),
    (["spectrum", "--m", "2", "--tol", "=1"], "tol: unknown tolerance ''"),
    (["szego", "--mode", "single", "--j", "-1..3", "--f", "harmonic:1,2,3"], "j: -1 lies below 1"),
    (["szego", "--mode", "cutoff", "--m", "0", "--f", "constant:2"], "m: 0 lies below 1"),
    (["szego", "--ser", "six"], "ser: --ser is not a flag of szego"),
    (["resistance", "--f=x"], "f: --f is not a flag of resistance"),
    (["resistance", "--m", "2", "--triples"], "triples: --triples needs a value"),
    (["resistance", "--m", "abc"], "m: integer required"),
    (["basis", "--series", "six", "--j", "3", "--N", "one", "--m-q", "4"], "N: integer required"),
    (["--m", "2", "spectrum"], "command: unknown or missing"),
    (["--config", "c.json"], "command: unknown or missing"),
    # a tolerance that is not a number, from a flag or a file (a leading
    # dict is written to a --config file), and file keys no command reads
    (["spectrum", "--m", "2", "--tol", "gram=abc"], "tol: gram must be a finite non-negative number"),
    ([{"tolerances": {"gram": "abc"}}, "spectrum", "--m", "2"],
     "tol: gram must be a finite non-negative number"),
    ([{"tolerances": {"gram": None}}, "spectrum", "--m", "2"],
     "tol: gram must be a finite non-negative number"),
    ([{"tolerances": {"gram": True}}, "spectrum", "--m", "2"],
     "tol: gram must be a finite non-negative number"),
    ([{"seires": "five", "mode": "single", "j": "3", "f": "constant:2"}, "szego"],
     "seires: not a field of any command"),
    ([{"tol": ["gram=1e-6"]}, "spectrum", "--m", "2"], "tol: not a field of any command"),
    ([{"tol": "gram=1e-6"}, "spectrum", "--m", "2"], "tol: not a field of any command"),
])
def test_argv_refusals_name_their_field(argv, violation, tmp_path, capsys):
    assert _run(_with_config(argv, tmp_path)) == 2
    assert json.loads(capsys.readouterr().err)["violations"] == [violation]


@pytest.mark.parametrize("argv,code", [([], 2), (["-h"], 0), (["--help"], 0),
                                       (["szego", "--mode", "single", "-h"], 0)])
def test_help_lists_every_command_and_flag(argv, code, capsys):
    # an empty argv is refused, but with the help text rather than a record
    assert _run(argv) == code
    out, err = capsys.readouterr()
    assert out.startswith("usage: sgszego") and err == ""
    for cmd, fields in cli.COMMANDS.items():
        assert any(line.split() == [cmd, *map(cli._flag, fields)] for line in out.splitlines())


def _readme_commands():
    """The argvs of the README's example commands, without their --out."""
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        lines = [line.split()[1:] for line in fh if line.startswith("sgszego ")]
    assert lines
    return [argv[:argv.index("--out")] for argv in lines]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_flags_and_config_files_give_the_same_config(argv, tmp_path):
    # each flag's field, written to a file as a JSON integer if it reads as
    # one and as a string otherwise, gives the config of the flags, and so
    # their config_hash; --flag=value reads as --flag value
    names = {"--m-q": "m_q", "--F": "functional"}
    pairs = list(zip(argv[1::2], argv[2::2]))
    fields = {names.get(flag, flag[2:]): int(value) if value.isdigit() else value
              for flag, value in pairs}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    from_flags = cli.effective_config(argv)
    from_file = cli.effective_config(["--config", str(path), argv[0]])
    assert cli.validate(from_flags) == []
    assert from_file == from_flags and cli.config_hash(from_file) == cli.config_hash(from_flags)
    assert cli.effective_config([argv[0], *(f"{flag}={value}" for flag, value in pairs)]) == \
        from_flags


@pytest.mark.parametrize("fields,argv", [
    ({"series": "seven"}, ["szego", "--mode", "single", "--j", "3", "--f", "constant:2"]),
    ({"series": "seven"}, ["szego", "--mode", "cutoff", "--m", "2", "--f", "constant:2"]),
    ({"series": "two"}, ["szego", "--mode", "single", "--j", "1", "--f", "constant:2"]),
], ids=["seven-single", "seven-cutoff", "two-single"])
def test_config_series_is_held_to_the_flag_choices(fields, argv, tmp_path, capsys):
    # a config file's series is refused as a series outside the choices of
    # the command's --series flag, in either mode
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    assert _run(["--config", str(path), *argv, "--out", str(tmp_path)]) == 2
    violations = json.loads(capsys.readouterr().err)["violations"]
    assert violations == [f"series: must be one of {', '.join(cli.SERIES_CHOICES['szego'])} "
                          "for szego"]


def test_level_range_checked_without_expanding():
    # "a..b" stays a range: an empty one is refused, and a long one by its
    # first level past the cap, without a list of its levels
    config = {"command": "szego", "mode": "single", "f": "constant:2", "seed": 0}
    assert cli.validate({**config, "j": "5..3"}) == ["j: range must be nonempty"]
    tracemalloc.start()
    try:
        violations = cli.validate({**config, "j": "2..2000000"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == ["j: 8 lies outside 1..7, its sampling level"]
    # a list of the 2*10^6 levels would take about 70 MB
    assert peak < 2e6, peak


def test_single_record_summary_is_strict_json(tmp_path):
    out = tmp_path / "one"
    assert _run(["szego", "--mode", "single", "--series", "six", "--j", "3",
                 "--f", "harmonic:1,1.5,2", "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    # one record leaves no rate to fit
    assert summary["results"]["fitted_exponent"] is None
    assert summary["results"]["r_squared"] is None


def test_one_distinct_dimension_fits_no_rate(tmp_path, capfd):
    # two records of the same j have one dimension between them: no line to
    # fit, and no warning of a degenerate fit on stderr
    out = tmp_path / "same"
    argv = [{"mode": "single", "j": [3, 3], "N": 1, "f": "simple:1.5,2.5,1.2"}, "szego",
            "--out", str(out)]
    assert _run(_with_config(argv, tmp_path)) == 0
    assert capfd.readouterr().err == ""
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results["records"] == 2
    assert results["fitted_exponent"] is None and results["r_squared"] is None


def test_numerical_failure_exit_3(tmp_path, capsys):
    out = tmp_path / "bad"
    # f changes sign on the gasket, so the compressed operator cannot be
    # positive definite and the log-determinant fails
    rc = _run(["szego", "--mode", "single", "--series", "six", "--j", "3",
               "--N", "1", "--f", "expr:x-0.4", "--out", str(out)])
    assert rc == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "numerical failure"
    assert record["detail"] == str(szego.NotPositiveDefiniteError())


@pytest.mark.parametrize(
    "argv",
    [
        ["equidist", "--mode", "single", "--j", "2", "--f", "constant:nan", "--F", "log"],
        ["equidist", "--mode", "single", "--series", "five", "--j", "2",
         "--f", "simple:1,1e308,2", "--F", "log"],
        ["equidist", "--mode", "single", "--j", "2", "--f", "simple:1,nan,2", "--F", "power:2"],
        ["szego", "--mode", "single", "--series", "five", "--j", "2", "--f", "simple:1e308,1,1"],
        ["szego", "--mode", "cutoff", "--m", "2", "--f", "simple:1,1e308,2"],
    ],
)
def test_non_finite_compressed_operator_exit_3(argv, tmp_path):
    out = tmp_path / "bad"
    # NaN in f, or products of f with the basis that overflow, leave entries
    # of the compressed operator that no factorization can take; a NaN
    # constant is refused as the constant the localized columns see
    assert _run(argv + ["--out", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "numerical failure"
    assert "f=" in record["detail"] and "level 3" in record["detail"]


def test_huge_constant_has_the_exact_record(tmp_path):
    # a constant f sees every column as the constant itself, with no product
    # of f and the basis to overflow: log det / d is log 1e308 within 1e-14
    out = tmp_path / "ok"
    assert _run(["szego", "--mode", "single", "--j", "2", "--f", "constant:1e308",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(_read_csv(out / "szego_single.csv")[1:]))
    assert len(rows) == 1
    exact = math.log(1e308)
    for field in ("logdet_over_d", "integral"):
        assert abs(float(rows[0][field]) - exact) <= 1e-14 * exact, field
    assert float(rows[0]["error"]) <= 1e-14 * exact


@pytest.mark.parametrize("fspec,value", [("constant:1e308", 1e308),
                                         ("harmonic:1e200,1e200,1e200", None)])
def test_functional_overflow_detail_is_a_plain_float(fspec, value, tmp_path):
    # F = power:2 overflows at the eigenvalues; the detail names the value
    # as a Python float, as the checked functional gives it, and no NumPy
    # scalar: the eigenvalue of a constant f is the constant itself
    out = tmp_path / "bad"
    assert _run(["equidist", "--mode", "single", "--j", "2", "--f", fspec, "--F", "power:2",
                 "--out", str(out)]) == 3
    detail = json.loads((out / "error.json").read_text())["detail"]
    assert detail.startswith("F=power:2 fails at x=") and "np.float64(" not in detail
    if value is not None:
        with pytest.raises(szego.FunctionalValueError) as expected:
            cli.parse_functional_spec("power:2")[1](value)
        assert detail == str(expected.value)


@pytest.mark.parametrize(
    "argv, functional",
    [
        (["--mode", "single", "--series", "six", "--j", "2"], "log"),
        (["--mode", "cutoff", "--m", "2"], "power:2"),
    ],
)
def test_multiplier_infinite_at_riemann_point_exit_3(argv, functional, tmp_path):
    out = tmp_path / "bad"
    # 1/x + 1 is infinite at the corner q1, which is the first Riemann point
    # but no interior vertex, so the compressed operator stays finite and F
    # meets the infinite value
    rc = _run(["equidist", *argv, "--f", "expr:1/x+1", "--F", functional, "--out", str(out)])
    assert rc == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "numerical failure"
    assert f"F={functional}" in record["detail"] and "x=inf" in record["detail"]
    assert not (out / "equidist.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["equidist", "--mode", "single", "--series", "six", "--j", "2",
         "--f", "expr:1/x+1", "--F", "log"],
        ["equidist", "--mode", "cutoff", "--m", "2", "--f", "expr:1/x+1", "--F", "power:2"],
        ["szego", "--mode", "single", "--series", "six", "--j", "2", "--f", "simple:1,1e308,2"],
    ],
)
def test_error_record_is_all_of_stderr(argv, tmp_path, capfd):
    # the non-finite values these runs meet divide by zero or overflow in
    # NumPy first; its warnings must not print ahead of the JSON record
    assert _run(argv + ["--out", str(tmp_path / "bad")]) == 3
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "numerical failure"


@pytest.mark.parametrize("fspec", ["expr:x", "harmonic:0,1,2"])
def test_log_integral_of_nonpositive_f_exit_3(fspec, tmp_path):
    out = tmp_path / "bad"
    # f vanishes only at the corner q1, which the quadrature of the integral
    # of log f reaches but the interior Cholesky does not
    rc = _run(["szego", "--mode", "single", "--series", "six", "--j", "2..3",
               "--f", fspec, "--out", str(out)])
    assert rc == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "numerical failure"
    assert f"f={fspec}" in record["detail"]
    assert "x=0.0" in record["detail"]


@pytest.mark.parametrize("fspec,value", [
    ("expr:x", 0.0), ("expr:x-0.05", -0.05), ("expr:1/x+1", math.inf)])
def test_vectorized_log_integral_keeps_the_checked_detail(fspec, value, tmp_path):
    # the integral of log f takes one np.log over the sample; its first value
    # that is <= 0 or not finite (here the corner q1, vertex 0) is reported
    # with the detail the scalar checked log gives there
    out = tmp_path / "bad"
    rc = _run(["szego", "--mode", "single", "--series", "six", "--j", "2",
               "--f", fspec, "--out", str(out)])
    assert rc == 3
    name = f"log f for f={fspec}"
    with pytest.raises(szego.FunctionalValueError) as expected:
        szego.checked(name, math.log)(value)
    assert json.loads((out / "error.json").read_text())["detail"] == str(expected.value)


def test_cutoff_run_enumerates_its_spectrum_once(tmp_path, monkeypatch):
    # the config check and the run both plan the sweep; the level-m table is
    # cached, so its groups are made once: 6 groups of 13 words in all
    built = []
    original = dec.make_groups

    def counted(words):
        built.append(original(words))
        return built[-1]
    monkeypatch.setattr(dec, "make_groups", counted)
    dec.enumerate_spectrum.cache_clear()
    argv = ["szego", "--mode", "cutoff", "--m", "3", "--N", "1", "--f", "constant:2"]
    assert _run(argv + ["--out", str(tmp_path)]) == 0
    assert len(built) == 1
    assert [group.level for group in built[0]] == [3] * 6
    assert sum(map(len, built[0])) == 13
    assert sum(map(len, dec.enumerate_spectrum(3))) == 13


def test_single_run_makes_its_group_once(tmp_path, monkeypatch):
    # the config check and the run both plan the sweep; the canonical group
    # is cached, so its one word is made once
    built = []
    original = szego.make_groups

    def counted(words):
        built.append(original(words))
        return built[-1]
    monkeypatch.setattr(szego, "make_groups", counted)
    szego._canonical_group.cache_clear()
    argv = ["szego", "--mode", "single", "--j", "3", "--N", "1", "--f", "constant:2"]
    assert _run(argv + ["--out", str(tmp_path)]) == 0
    assert len(built) == 1
    assert [(g.series, g.birth, g.level, len(g)) for g in built[0]] == [("six", 3, 4, 1)]
    group = szego._canonical_group("six", 3, 4)
    assert group is built[0][0] and not group.gammas.flags.writeable


def test_cutoff_run_builds_no_topology_past_its_sampling_level(tmp_path, monkeypatch):
    # cutoff m=7 is sampled at level 7 and integrates log f at level 8 off
    # the level-7 cells, so no level-8 table is built; for a harmonic f the
    # cell tree, the kernels and the integral read no table of any level
    built = []

    class Counted(top.LevelTopology):
        def __init__(self, m):
            built.append(m)
            super().__init__(m)
    monkeypatch.setattr(top, "LevelTopology", Counted)
    for module in (dec, szego, top):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    argv = ["szego", "--mode", "cutoff", "--m", "7", "--N", "1", "--f", "harmonic:1.2,1.5,1.9"]
    assert _run(argv + ["--out", str(tmp_path)]) == 0
    assert built == [], sorted(built)


def test_log_functional_of_nonpositive_f_exit_3(tmp_path):
    out = tmp_path / "bad"
    # a negative boundary value makes f negative near that corner, so the
    # log functional meets non-positive operator eigenvalues
    rc = _run(["equidist", "--mode", "single", "--series", "six", "--j", "2",
               "--f", "harmonic:-1,1,2", "--F", "log", "--out", str(out)])
    assert rc == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "numerical failure"


@pytest.mark.parametrize("functional", ["expr:math.log(x)", "power:0.5"])
def test_functional_outside_its_domain_exit_3(functional, tmp_path):
    out = tmp_path / "bad"
    # f takes the value -1 at a corner, where neither functional is real
    rc = _run(["equidist", "--mode", "single", "--series", "six", "--j", "2",
               "--f", "harmonic:-1,1,2", "--F", functional, "--out", str(out)])
    assert rc == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "numerical failure"
    assert f"F={functional}" in record["detail"]
    assert "x=-1.0" in record["detail"]
    assert not (out / "equidist.csv").exists()


@pytest.mark.parametrize("functional", ["expr:1e308", "expr:1e308*x"])
def test_functional_average_overflow_exit_3(functional, tmp_path, capfd):
    # every value of F is finite, so each passes its check, but their mean
    # overflows; the averages are refused before any CSV or summary is written
    out = tmp_path / "bad"
    rc = _run(["equidist", "--mode", "single", "--j", "3", "--N", "1",
               "--f", "harmonic:1,1.5,2", "--F", functional, "--out", str(out)])
    assert rc == 3
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "numerical failure" and "not all finite" in record["detail"]
    assert json.loads((out / "error.json").read_text()) == record
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_record_runtimes_in_summary_only(tmp_path):
    argv = ["szego", "--mode", "single", "--series", "six", "--j", "2..3",
            "--N", "1", "--f", "simple:1,2,3"]
    summaries = []
    for name in ("a", "b"):
        assert _run(argv + ["--out", str(tmp_path / name)]) == 0
        summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
    for summary in summaries:
        runtimes = summary["timings"]["record_runtime_s"]
        assert len(runtimes) == len(summary["results"]["errors"]) == 2
        assert all(isinstance(t, float) and t > 0.0 for t in runtimes)
    # measured times vary run to run; the config hash and CSV bodies do not
    assert summaries[0]["config_hash"] == summaries[1]["config_hash"]
    for name in ("szego_single.csv", "szego_single_loglog.csv"):
        a, b = (tmp_path / d / name for d in ("a", "b"))
        assert a.read_bytes() == b.read_bytes()
        assert "runtime" not in a.read_text()


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["szego", "--mode", "single", "--series", "six", "--j", "2..4",
            "--N", "1", "--f", "simple:1,2,3", "--seed", "5"]
    assert _run(argv + ["--out", str(a)]) == 0
    assert _run(argv + ["--out", str(b)]) == 0
    assert (a / "szego_single.csv").read_bytes() == (b / "szego_single.csv").read_bytes()
    assert (a / "equidist.csv").exists() is False


@pytest.mark.parametrize("series,j,N,m_q", [("six", 4, 2, 6), ("five", 4, 2, 5)])
def test_basis_csv_byte_identical_across_processes(series, j, N, m_q, tmp_path):
    # the remainder columns are built in closed form, so two cold runs of one
    # config write the same bytes, the non-localized columns included
    argv = [sys.executable, "-m", "sgszego.cli", "basis", "--series", series, "--j", str(j),
            "--N", str(N), "--m-q", str(m_q)]
    bodies = []
    for name in ("a", "b"):
        subprocess.run(argv + ["--out", str(tmp_path / name)], check=True, env=_src_env())
        bodies.append((tmp_path / name / "basis.csv").read_bytes())
    assert bodies[0] == bodies[1]
    assert b"nonlocalized" in bodies[0]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3}))
    out = tmp_path / "run"
    rc = _run(["--config", str(cfg), "spectrum", "--m", "2", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["total_multiplicity"] == 12  # flag wins over file


def test_config_file_out_unless_the_flag_overrides(tmp_path, monkeypatch):
    # an omitted --out leaves the file's out in force, and the working
    # directory untouched
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "from-file")}))
    assert _run(["--config", str(cfg), "spectrum", "--m", "2"]) == 0
    assert (tmp_path / "from-file" / "spectrum.csv").exists()
    assert not (tmp_path / "spectrum.csv").exists()
    assert _run(["--config", str(cfg), "spectrum", "--m", "2", "--out", "flag"]) == 0
    assert (tmp_path / "flag" / "spectrum.csv").read_text() == \
        (tmp_path / "from-file" / "spectrum.csv").read_text()


def test_tolerance_override_recorded(tmp_path):
    out = tmp_path / "run"
    rc = _run(["spectrum", "--m", "2", "--tol", "gram=1e-6", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tolerances"]["gram"] == 1e-6


def test_config_hash_ignores_out(tmp_path):
    c1 = {"command": "spectrum", "m": 2, "out": "x"}
    c2 = {"command": "spectrum", "m": 2, "out": "y"}
    assert cli.config_hash(c1) == cli.config_hash(c2)
    assert cli.config_hash(c1) != cli.config_hash({"command": "spectrum", "m": 3})


# config hashes recorded before the built-in SHA-256 replaced hashlib's
PINNED_HASHES = [
    ({"command": "spectrum", "m": 3}, "70788ed5c65b04ea"),
    ({"command": "szego", "mode": "cutoff", "m": 2, "f": "harmonic:1,2,3", "seed": 7},
     "e6a74edf9fc56457"),
    ({"command": "resistance", "m": 3, "triples": 50, "seed": 0,
      "tolerances": {"gram": 1e-10, "eigen_residual": 1e-9, "logdet_rel": 1e-8}},
     "30260e070fbacd96"),
    ({"command": "basis", "series": "six", "j": 3, "N": 1, "m_q": 4, "seed": 5, "out": "x"},
     "15fde0af4a67b233"),
]


def test_config_hash_pinned():
    assert [(c, cli.config_hash(c)) for c, _ in PINNED_HASHES] == PINNED_HASHES


def test_config_hash_pinned_through_the_hashlib_fallback():
    # an interpreter built without its own SHA-256 takes hashlib's, and the
    # digests stay the same
    configs = [c for c, _ in PINNED_HASHES]
    code = ('import sys; sys.modules["_sha2"] = sys.modules["_sha256"] = None; '
            f'from sgszego import cli; print([cli.config_hash(c) for c in {configs!r}]); '
            'assert "hashlib" in sys.modules')
    assert _fresh_python(code) == repr([h for _, h in PINNED_HASHES])


# the columns of the CSVs that hold floats, each written as its shortest repr
FLOAT_COLUMNS = {"logdet_over_d", "integral", "error", "log_d", "log_error",
                 "spectral", "riemann", "gap", "value"}


def _float_rows(path):
    """The rows of a CLI CSV as dicts, with every float cell checked to be the
    shortest repr of its value."""
    rows = list(csv.DictReader(_read_csv(path)[1:]))
    assert rows
    for row in rows:
        for key in FLOAT_COLUMNS & row.keys():
            assert row[key] == repr(float(row[key])), (path.name, key, row[key])
    return rows


@pytest.mark.parametrize("mode,indices", [("single", "2..4"), ("cutoff", "2..3")])
def test_float_cells_match_library_values(mode, indices, tmp_path):
    spec = "harmonic:1,1.5,2"
    common = ["--mode", mode, f"--{szego.INDEX_FIELDS[mode]}", indices, "--N", "1", "--f", spec]
    assert _run(["szego", *common, "--out", str(tmp_path)]) == 0
    assert _run(["equidist", *common, "--F", "log", "--out", str(tmp_path)]) == 0
    f, levels = parse_function_spec(spec), cli.parse_range(indices)
    records = szego.szego_sweep(f, mode, levels, 1)
    rows = _float_rows(tmp_path / f"szego_{mode}.csv")
    assert [[float(r[k]) for k in ("logdet_over_d", "integral", "error")] for r in rows] == \
        [[r.logdet_over_d, r.integral, r.error] for r in records]
    rows = _float_rows(tmp_path / f"szego_{mode}_loglog.csv")
    assert [[float(r["log_d"]), float(r["log_error"])] for r in rows] == \
        [[math.log(r.dimension), math.log(r.error)] for r in records]
    func = cli.parse_functional_spec("log")[1]
    compared = [szego.equidistribution_compare(op, f, func)
                for _, op in szego.operators(f, mode, levels, 1)]
    rows = _float_rows(tmp_path / "equidist.csv")
    assert [[float(r[k]) for k in ("spectral", "riemann", "gap")] for r in rows] == \
        [list(c) for c in compared]


@pytest.mark.parametrize("series,j,N,m_q", [("six", 3, 1, 4), ("five", 4, 2, 5), ("two", 1, 0, 3)])
def test_basis_cells_match_library_values(series, j, N, m_q, tmp_path):
    argv = ["basis", "--series", series, "--j", str(j), "--N", str(N), "--m-q", str(m_q)]
    assert _run(argv + ["--out", str(tmp_path)]) == 0
    group = szego._canonical_group(series, j, m_q)
    (vectors,) = szego.basis_columns(group, m_q)
    # the vertex rows at the corners of V_0, which basis.csv leaves out, are 0
    boundary = top.level_topology(m_q).boundary_mask
    assert np.all(vectors[boundary] == 0.0)
    vectors = vectors[~boundary]
    rows = _float_rows(tmp_path / "basis.csv")
    n, d = vectors.shape
    assert len(rows) == n * d
    values = np.array([float(r["value"]) for r in rows]).reshape(d, n)
    assert np.array_equal(values, vectors.T)
    # a localized column is tagged with the word of its own cell, the depth-k
    # words in lexicographic order
    words = {k: ["".join(map(str, w)) or "-" for w in product((1, 2, 3), repeat=k)]
             for k in range(m_q)}
    depth, rank = szego.column_cells(group)
    tags = [words[k][c] for k, c in zip(depth.tolist(), rank.tolist())]
    localized = szego.localized_columns(group, N)
    assert [r["tag"] for r in rows[::n]] == tags[:localized] + ["nonlocalized"] * (d - localized)


def test_basis_holds_its_columns_once(tmp_path):
    # the six j=7 basis at m_q=7 on the vertex rows of V_7 is 28.7 MB: a
    # warm run holds it once, with the two temporaries of eigen_residual
    # (3.0 of it); a second copy of the columns would make 4.0
    argv = ["basis", "--series", "six", "--j", "7", "--N", "3", "--m-q", "7"]
    assert _run(argv + ["--out", str(tmp_path / "cold")]) == 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert _run(argv + ["--out", str(tmp_path / "warm")]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    dense = top.vertex_count(7) * szego._canonical_group("six", 7, 7).multiplicity * 8
    assert peak < 3.5 * dense, peak / dense


def test_triple_draw_uniform_over_ordered_distinct_triples():
    n, count = 5, 60000
    x, y, z = cli._draw_triples(random.Random(0), n, count)
    assert np.all((x != y) & (y != z) & (x != z))
    assert min(x.min(), y.min(), z.min()) >= 0 and max(x.max(), y.max(), z.max()) < n
    hits = np.bincount((x * n + y) * n + z, minlength=n**3)
    hits = hits[hits > 0]
    # all 60 ordered triples, each expected 1000 times with standard deviation 31
    assert len(hits) == n * (n - 1) * (n - 2)
    assert 850 < hits.min() and hits.max() < 1150, (hits.min(), hits.max())


def test_draw_below_rejects_about_half_the_words():
    # 2^32 mod (2^31 + 1) = 2^31 - 1, so the words kept are 0..2^31, about
    # half of them, and each is its own value: the draw is the stream of
    # 32-bit words with the others left out, in order
    bound, count = 2**31 + 1, 100000
    values = cli._draw_below(random.Random(1), bound, count)
    words = np.frombuffer(random.Random(1).randbytes(4 * 3 * count), dtype="<u4")
    kept = words[words <= 2**31]
    assert len(kept) >= count
    assert np.array_equal(values, kept[:count])
    assert 0 <= values.min() and values.max() < bound
    # eight equal bins, each expected 12500 times with standard deviation 105
    hits = np.bincount(values * 8 // bound, minlength=8)
    assert len(hits) == 8 and 12000 < hits.min() and hits.max() < 13000, hits


def test_resistance_does_not_import_numpy_random(tmp_path):
    # the triples come from the standard library's generator, which NumPy's
    # own import has already loaded; and the config hash is the interpreter's
    # built-in SHA-256, so hashlib and OpenSSL's _hashlib stay out
    code = ("import sys; from sgszego import cli; "
            f"assert cli.main(['resistance', '--m', '3', '--out', {str(tmp_path)!r}]) == 0; "
            "print(sorted({'numpy.random', 'hashlib', '_hashlib'} & set(sys.modules)))")
    assert _fresh_python(code) == "[]"


def test_cli_import_loads_no_argparse(tmp_path):
    # the argv is read off cli.COMMANDS, so neither argparse nor the gettext
    # it loads for its messages is imported, by the import or by a szego run;
    # nor is hashlib or OpenSSL's _hashlib, for the config hash
    unused = "{'argparse', 'gettext', 'hashlib', '_hashlib'}"
    code = ("import sys; from sgszego import cli; "
            f"print(sorted({unused} & set(sys.modules))); "
            "assert cli.main(['szego', '--mode', 'cutoff', '--m', '2', '--f', 'harmonic:1,2,3', "
            f"'--out', {str(tmp_path)!r}]) == 0; "
            f"print(sorted({unused} & set(sys.modules)))")
    assert _fresh_python(code).split("\n") == ["[]", "[]"]


def _writes_file(node):
    """An open() call whose mode is not a constant read mode."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def test_only_cli_writes_files():
    # the CSV format and the output files are decided in one module
    csv_users, writers = set(), set()
    for path in sorted(glob.glob(os.path.join(SRC, "sgszego", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        name = os.path.basename(path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "csv"):
                csv_users.add(name)
            if _writes_file(node):
                writers.add(name)
    assert csv_users == {"cli.py"}
    assert writers == {"cli.py"}


def test_sampling_policy_read_in_one_place():
    # which eigenspaces an index selects, and the level it is sampled at, are
    # decided by szego.sweep_plan alone; the command line reads the cap only
    # to refuse an m_q above it
    reads = []
    for path in sorted(glob.glob(os.path.join(SRC, "sgszego", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        scope = {}  # node -> the top-level function it lies in
        for func in tree.body:
            if isinstance(func, ast.FunctionDef):
                scope.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name == "MQ_CAP" and isinstance(getattr(node, "ctx", None), ast.Load):
                reads.append((os.path.basename(path), scope.get(node)))
    assert sorted(reads) == [("cli.py", "validate"), ("szego.py", "sweep_plan")]
