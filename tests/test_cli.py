import json

import pytest

from sgszego import cli


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
    lines = _read_csv(out / "resistance.csv")
    for line in lines[2:]:
        assert abs(float(line.split(",")[2]) - 2.0 / 3.0) < 1e-9


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
    ],
)
def test_invalid_configs_exit_2(argv, tmp_path):
    assert _run(argv + ["--out", str(tmp_path)]) == 2


def test_numerical_failure_exit_3(tmp_path, capsys):
    out = tmp_path / "bad"
    # f changes sign on the gasket, so the compressed operator cannot be
    # positive definite and the log-determinant fails
    rc = _run(["szego", "--mode", "single", "--series", "six", "--j", "3",
               "--N", "1", "--f", "expr:x-0.4", "--out", str(out)])
    assert rc == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "numerical failure"


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
