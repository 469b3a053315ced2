import csv
import json
import os
import subprocess
import sys

import pytest

from sgszego import cli


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(argv):
    return cli.main(argv)


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
    lines = _read_csv(out / "resistance.csv")
    for line in lines[2:]:
        assert abs(float(line.split(",")[2]) - 2.0 / 3.0) < 1e-9


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
    ],
)
def test_invalid_configs_exit_2(argv, tmp_path):
    if isinstance(argv[0], dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv[0]))
        argv = ["--config", str(path), *argv[1:]]
    assert _run(argv + ["--out", str(tmp_path)]) == 2


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


def test_numerical_failure_exit_3(tmp_path, capsys):
    out = tmp_path / "bad"
    # f changes sign on the gasket, so the compressed operator cannot be
    # positive definite and the log-determinant fails
    rc = _run(["szego", "--mode", "single", "--series", "six", "--j", "3",
               "--N", "1", "--f", "expr:x-0.4", "--out", str(out)])
    assert rc == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "numerical failure"


@pytest.mark.parametrize(
    "argv",
    [
        ["equidist", "--mode", "single", "--j", "2", "--f", "constant:nan", "--F", "log"],
        ["equidist", "--mode", "single", "--j", "2", "--f", "constant:1e308", "--F", "power:2"],
        ["equidist", "--mode", "single", "--j", "2", "--f", "simple:1,nan,2", "--F", "power:2"],
        ["szego", "--mode", "single", "--j", "2", "--f", "constant:1e308"],
        ["szego", "--mode", "cutoff", "--m", "2", "--f", "simple:1,1e308,2"],
    ],
)
def test_non_finite_compressed_operator_exit_3(argv, tmp_path):
    out = tmp_path / "bad"
    # NaN in f, or products of f with the basis that overflow, leave entries
    # of the compressed operator that no factorization can take
    assert _run(argv + ["--out", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "numerical failure"
    assert "f=" in record["detail"] and "level 3" in record["detail"]


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
        ["szego", "--mode", "single", "--series", "six", "--j", "2", "--f", "constant:1e308"],
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
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    bodies = []
    for name in ("a", "b"):
        subprocess.run(argv + ["--out", str(tmp_path / name)], check=True, env=env)
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
