"""Output checks for one sgszego CLI invocation.

Every expected value is computed here from the invocation's arguments, from
the multiplicity formulas of spectral decimation, or from recorded reference
values; nothing is taken from the program under test.
"""
import csv
import json
import math
import os


def interior_count(m):
    return (3 ** (m + 1) - 3) // 2


def multiplicity(series, birth):
    if series == "two":
        return 1
    if series == "five":
        return (3 ** (birth - 1) + 3) // 2
    return (3 ** birth - 3) // 2


def localized_count(series, birth, scale):
    """Scale-N localized columns of one eigenspace: 3^N cells, each holding
    a transplanted smaller eigenspace (6-series) or its subspace with
    vanishing normal derivatives (5-series)."""
    if scale is None or series == "two" or scale >= birth:
        return 0
    if series == "five":
        return 3 ** scale * (3 ** (birth - scale - 1) - 1) // 2
    return 3 ** scale * (3 ** (birth - scale) - 3) // 2


def spectrum_entries(m):
    """(series, birth, count of eigenvalues) at level m."""
    out = [("two", 1, 2 ** (m - 1))]
    out += [("five", j, 2 ** (m - j)) for j in range(1, m + 1)]
    out += [("six", j, 2 ** max(m - j - 1, 0)) for j in range(2, m + 1)]
    return out


def parse_range(value):
    if ".." in value:
        lo, hi = value.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(value)]


def options(argv):
    """{flag: value} of an argv made of a command and --flag value pairs."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}


def read_rows(path):
    """CSV data rows as dicts, skipping the leading config-hash comment."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def reference_key(argv):
    return " ".join(argv)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


def check(argv, out, reference):
    """Problems found in the outputs an invocation wrote to `out`; empty
    when every check passes.  A missing or unparsable file raises."""
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    results = summary["results"]
    tol = summary["tolerances"]
    cmd, opt = argv[0], options(argv)

    if cmd == "szego":
        _check_szego(argv, opt, out, tol, reference, expect)

    elif cmd == "resistance":
        rows = read_rows(os.path.join(out, "resistance.csv"))
        expect(len(rows) == 3, "three boundary pairs")
        for r in rows:
            expect(_close(float(r["resistance"]), 2.0 / 3.0, 1e-9),
                   f"boundary resistance {r['resistance']} != 2/3")
        expect(results["triangle_violations"] == 0, "triangle violations")
        expect(results["triples"] == int(opt["triples"]), "triples count")

    else:
        problems.append(f"no check for command {cmd!r}")
    return problems


def _check_szego(argv, opt, out, tol, reference, expect):
    mode = opt.get("mode", "single")
    scale = int(opt["N"]) if "N" in opt else None
    rows = read_rows(os.path.join(out, f"szego_{mode}.csv"))
    if mode == "single":
        series = opt.get("series", "six")
        indices = [j for j in parse_range(opt["j"]) if scale is None or j > scale]
        dims = [multiplicity(series, j) for j in indices]
        locs = [localized_count(series, j, scale) for j in indices]
    else:
        indices = parse_range(opt["m"])
        dims = [interior_count(m) for m in indices]
        locs = [sum(count * localized_count(series, birth, scale)
                    for series, birth, count in spectrum_entries(m)) for m in indices]
    expect([int(r["index"]) for r in rows] == indices, "record indices")
    if len(rows) != len(indices):
        return
    f_kind, _, f_arg = opt["f"].partition(":")
    for r, d, loc in zip(rows, dims, locs):
        ld, integral, err = float(r["logdet_over_d"]), float(r["integral"]), float(r["error"])
        expect(int(r["d"]) == d, f"d {r['d']} != {d}")
        expect(int(r["localized_dim"]) == loc, f"localized {r['localized_dim']} != {loc}")
        expect(int(r["nonlocalized_dim"]) == d - loc, f"nonlocalized {r['nonlocalized_dim']}")
        expect(math.isfinite(ld) and _close(err, abs(ld - integral), 1e-12),
               "error is |logdet/d - integral|")
        if f_kind == "simple":
            coefs = [float(c) for c in f_arg.split(",")]
            exact = sum(math.log(c) for c in coefs) / len(coefs)
            expect(_close(integral, exact, 1e-12), f"integral {integral} != mean log {exact}")
    recorded = reference.get(reference_key(argv))
    if recorded is not None:
        rel = tol["logdet_rel"]
        expect(len(recorded) == len(rows), "reference record count")
        for r, ref in zip(rows, recorded):
            scale_ld = max(1.0, abs(ref["logdet_over_d"]))
            expect(abs(float(r["logdet_over_d"]) - ref["logdet_over_d"]) <= rel * scale_ld,
                   f"logdet_over_d {r['logdet_over_d']} != reference {ref['logdet_over_d']}")
            expect(abs(float(r["error"]) - ref["error"]) <= rel * scale_ld,
                   f"error {r['error']} != reference {ref['error']}")
