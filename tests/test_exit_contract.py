"""Property test of the command line exit contract: every argv, and every
--config file, ends with exit 0 (success), 2 (invalid config) or 3 (numerical
failure), never with an exception.  Sizes stay small, so each generated run
takes milliseconds."""
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgszego import cli

SIGNED = st.integers(-2, 2)

MULTIPLIERS = st.one_of(
    st.integers(0, 4).flatmap(
        lambda k: st.lists(st.integers(1, 3), min_size=3**k, max_size=3**k)
    ).map(lambda cs: "simple:" + ",".join(map(str, cs))),
    st.tuples(SIGNED, SIGNED, SIGNED).map(lambda c: "expr:{}*x+{}*y+{}".format(*c)),
    st.tuples(SIGNED, SIGNED, SIGNED).map(lambda h: "harmonic:{},{},{}".format(*h)),
    # expressions that compile but fail on arrays, give non-real values or
    # are not pointwise
    st.tuples(st.sampled_from(["z", "x(1)", '"a"', "1j", "np.ones(2)", "np.ones(3)", "x[:6]"]),
              SIGNED).map(lambda t: "expr:{}+{}*y".format(*t)),
    # values that make the compressed operator non-finite
    st.sampled_from(["constant:1e308", "constant:nan"]),
    # infinite at the corner q1, a Riemann point and a quadrature vertex
    st.just("expr:1/x+1"),
)


def _level_range(hi):
    return st.tuples(st.integers(1, hi), st.integers(1, hi)).map(
        lambda t: f"{min(t)}..{max(t)}")


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(["szego", "equidist", "resistance", "basis"]))
    if cmd == "resistance":
        return ["resistance", "--m", str(draw(st.integers(0, 3))),
                "--triples", str(draw(st.integers(-5, 50)))]
    if cmd == "basis":
        return ["basis", "--series", draw(st.sampled_from(["two", "five", "six"])),
                "--j", str(draw(st.integers(-1, 8))), "--N", str(draw(st.integers(-1, 3))),
                "--m-q", str(draw(st.integers(0, 5)))]
    argv = [cmd]
    if draw(st.booleans()):
        argv += ["--mode", "single", "--series", draw(st.sampled_from(["five", "six"])),
                 "--j", draw(_level_range(4))]
        if cmd == "szego" and draw(st.booleans()):
            argv += ["--m-q", str(draw(st.integers(1, 5)))]
    else:
        argv += ["--mode", "cutoff", "--m", draw(_level_range(3))]
    if draw(st.booleans()):
        argv += ["--N", str(draw(st.integers(0, 3)))]
    argv += ["--f", draw(MULTIPLIERS)]
    if cmd == "equidist":
        # expr:1e308 is finite at every value, but its averages overflow
        argv += ["--F", draw(st.sampled_from(["log", "power:2", "power:0.5", "expr:1e308"]))]
    return argv


def _exit_code(argv):
    return cli.main(argv)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(argvs())
def test_every_argv_exits_0_2_or_3(argv):
    with tempfile.TemporaryDirectory() as out:
        assert _exit_code(argv + ["--out", out]) in (0, 2, 3)


FIELDS = {"--mode": "mode", "--series": "series", "--j": "j", "--m": "m", "--m-q": "m_q",
          "--N": "N", "--f": "f", "--F": "functional", "--triples": "triples"}

# JSON values of every type, to stand in for a field of a config file
MIXED = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 4), st.floats(-1.0, 4.0),
    st.sampled_from(["", "abc", "2", "1..2", "log"]), st.lists(st.integers(-1, 4), max_size=2),
)


@st.composite
def config_invocations(draw):
    """(config file fields, argv): each flag of a drawn argv stays a flag,
    moves into the config file, or is replaced there by a value of any type;
    sometimes the file also sets a field the argv does not name."""
    argv = draw(argvs())
    config, flags = {}, [argv[0]]
    for flag, value in zip(argv[1::2], argv[2::2]):
        where = draw(st.sampled_from(["flag", "file", "mixed"]))
        if where == "flag":
            flags += [flag, value]
        elif where == "file":
            config[FIELDS[flag]] = int(value) if value.lstrip("-").isdigit() else value
        else:
            config[FIELDS[flag]] = draw(MIXED)
    if draw(st.booleans()):
        config[draw(st.sampled_from(["m_q", "N", "seed", "triples", "tolerances"]))] = draw(MIXED)
    return config, flags


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(config_invocations())
def test_every_config_file_exits_0_2_or_3(invocation):
    config, argv = invocation
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        assert _exit_code(["--config", path, *argv, "--out", out]) in (0, 2, 3)


def test_gram_tolerance_enforced_exit_3():
    # the basis command measures the Gram deviation, at most about 1e-15 here,
    # and a tolerance below it is a numerical failure, not a recorded number
    argv = ["basis", "--series", "five", "--j", "3", "--N", "1", "--m-q", "3"]
    with tempfile.TemporaryDirectory() as out:
        assert _exit_code(argv + ["--tol", "gram=1e-30", "--out", out]) == 3
        with open(os.path.join(out, "error.json")) as fh:
            record = json.load(fh)
        assert record["error"] == "numerical failure"
        assert record["check"] == "gram" and record["limit"] == 1e-30
        assert 1e-30 < record["value"] <= 1e-13
        assert not os.path.exists(os.path.join(out, "basis.csv"))
    with tempfile.TemporaryDirectory() as out:
        assert _exit_code(argv + ["--out", out]) == 0


def test_eigen_residual_tolerance_enforced_exit_3():
    # the largest relative residual of the basis columns at m_q is about 1e-15
    # here; a tolerance below it exits 3 and names the check in error.json
    argv = ["basis", "--series", "six", "--j", "3", "--N", "1", "--m-q", "4"]
    with tempfile.TemporaryDirectory() as out:
        assert _exit_code(argv + ["--tol", "eigen_residual=1e-30", "--out", out]) == 3
        with open(os.path.join(out, "error.json")) as fh:
            record = json.load(fh)
        assert record["error"] == "numerical failure"
        assert record["check"] == "eigen_residual" and record["limit"] == 1e-30
        assert 1e-30 < record["value"] <= 1e-13
        assert not os.path.exists(os.path.join(out, "basis.csv"))
    with tempfile.TemporaryDirectory() as out:
        assert _exit_code(argv + ["--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            residual = json.load(fh)["results"]["max_eigen_residual"]
        assert 0.0 < residual <= 1e-13


@pytest.mark.parametrize("argv,name,code", [
    (["spectrum", "--m", "2"], "spectrum.csv", 2),
    (["resistance", "--m", "3", "--triples", "5"], "summary.json", 2),
    # a numerical failure still exits 3 when error.json cannot be written,
    # with its record on stderr
    (["szego", "--mode", "single", "--j", "3", "--N", "1", "--f", "expr:x-0.4"], "error.json", 3),
])
def test_output_name_taken_by_a_directory(argv, name, code, capsys):
    with tempfile.TemporaryDirectory() as out:
        os.mkdir(os.path.join(out, name))
        assert _exit_code(argv + ["--out", out]) == code
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    if code == 2:
        assert record["error"] == "invalid config"
        assert record["violations"][0].startswith("out: ") and name in record["violations"][0]
    else:
        assert record["error"] == "numerical failure"
