"""Configuration-driven command line front end.

A run is described by a JSON config document; command line flags override
file fields.  Every output CSV embeds the hash of the effective config in a
leading comment line, so re-running the same config and seed reproduces
byte-identical CSV bodies.  Exit codes: 0 success, 2 invalid config,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import decimation, eigenbasis, laplacian, szego, topology
from .functions import parse_function_spec

DEFAULT_TOLERANCES = {
    "gram": 1e-10,
    "eigen_residual": 1e-9,
    "logdet_rel": 1e-8,
}

# generations of birth of each series that the sampling cap can reach
BIRTHS = {"two": range(1, 2), "five": range(1, szego.MQ_CAP + 1), "six": range(2, szego.MQ_CAP + 1)}

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def parse_range(value):
    """Accept 4, "4", "2..5" or [2, 3, 4]."""
    if value is None:
        return None
    if isinstance(value, int):
        return [value]
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    s = str(value)
    if ".." in s:
        lo, hi = s.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s)]


class FunctionalValueError(ArithmeticError):
    """Raised when the functional F fails, or leaves the finite reals, at a
    value it is applied to."""


def _checked(spec, func):
    """F that raises FunctionalValueError naming the argument on any
    exception, complex result or non-finite result."""
    def checked(x):
        try:
            y = func(x)
            finite = not isinstance(y, complex) and math.isfinite(y)
        except Exception as exc:  # F is user input: any failure of it is numerical
            raise FunctionalValueError(f"F={spec} fails at x={float(x)!r}: {exc}") from exc
        if not finite:
            raise FunctionalValueError(f"F={spec} at x={float(x)!r} gives {y!r}, not a finite real")
        return float(y)
    return checked


def parse_functional_spec(spec):
    if spec is None or spec == "log":
        return "log", _checked("log", math.log)
    if spec.startswith("power:"):
        p = float(spec.split(":", 1)[1])
        return spec, _checked(spec, lambda x: x ** p)
    if spec.startswith("expr:"):
        expr = spec.split(":", 1)[1]
        code = compile(expr, "<functional>", "eval")
        return spec, _checked(spec, lambda x: eval(code, {"__builtins__": {}}, {"x": x, "math": math}))
    raise ValueError(f"unknown functional spec {spec!r}")


def config_hash(config):
    payload = {k: v for k, v in config.items() if k != "out"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_parser():
    p = argparse.ArgumentParser(prog="sgszego")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--out", default=".")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--tol", action="append", default=[],
                        help="tolerance override name=value, repeatable")

    sp = sub.add_parser("topology", help="vertex/cell tables of a level graph")
    sp.add_argument("--m", type=int, default=None)
    common(sp)

    sp = sub.add_parser("spectrum", help="decimation-enumerated Dirichlet spectrum")
    sp.add_argument("--m", type=int, default=None)
    common(sp)

    sp = sub.add_parser("basis", help="localized eigenspace basis for one eigenvalue")
    sp.add_argument("--series", choices=["two", "five", "six"], default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--m-q", dest="m_q", type=int, default=None)
    common(sp)

    sp = sub.add_parser("szego", help="log-determinant convergence sweeps")
    sp.add_argument("--mode", choices=["single", "cutoff"], default=None)
    sp.add_argument("--series", choices=["five", "six"], default=None)
    sp.add_argument("--j", default=None, help="single mode birth range, e.g. 2..5")
    sp.add_argument("--m", default=None, help="cutoff mode level range, e.g. 2..5")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--m-q", dest="m_q", type=int, default=None)
    sp.add_argument("--f", default=None)
    common(sp)

    sp = sub.add_parser("equidist", help="spectral vs Riemann equidistribution gap")
    sp.add_argument("--mode", choices=["single", "cutoff"], default=None)
    sp.add_argument("--series", choices=["five", "six"], default=None)
    sp.add_argument("--j", default=None)
    sp.add_argument("--m", default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--f", default=None)
    sp.add_argument("--F", dest="functional", default=None, help="log, power:p or expr:...")
    common(sp)

    sp = sub.add_parser("resistance", help="effective resistance checks")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--triples", type=int, default=None)
    common(sp)
    return p


def effective_config(args):
    config = {}
    if args.config:
        with open(args.config) as fh:
            config.update(json.load(fh))
    for key, val in vars(args).items():
        if key == "config":
            continue
        if val is None or (key == "tol" and not val):
            continue
        config[key] = val
    config["tolerances"] = _tolerances(config)
    config.setdefault("out", ".")
    config.setdefault("seed", 0)
    return config


def _tolerances(config):
    """DEFAULT_TOLERANCES updated from the config file, then from --tol flags."""
    tolerances = dict(DEFAULT_TOLERANCES)
    flags = [item.partition("=")[::2] for item in config.pop("tol", [])]
    for name, value in list(config.get("tolerances", {}).items()) + flags:
        if name not in tolerances:
            raise ValueError(f"tol: unknown tolerance {name!r}")
        tolerances[name] = float(value)
    return tolerances


def validate(config):
    """Empty list iff the config is runnable; violations name field+constraint."""
    v = []
    cmd = config.get("command")
    if cmd not in {"topology", "spectrum", "basis", "szego", "equidist", "resistance"}:
        v.append("command: unknown or missing")
        return v

    def rng(key):
        r = parse_range(config.get(key))
        if r is not None and not r:
            v.append(f"{key}: range must be nonempty")
        return r

    if cmd in ("topology", "spectrum", "resistance"):
        m = config.get("m")
        if m is None or int(m) < (0 if cmd == "topology" else 1):
            v.append("m: required nonnegative level")
    if cmd == "basis":
        for key in ("series", "j", "N", "m_q"):
            if config.get(key) is None:
                v.append(f"{key}: required")
    if cmd in ("szego", "equidist") and config.get("mode", "single") != "single":
        ms = rng("m")
        if ms is None:
            v.append("m: required in cutoff mode")
        elif ms and not 1 <= min(ms) <= max(ms) <= szego.MQ_CAP:
            v.append(f"m: levels must lie in 1..{szego.MQ_CAP}")
    elif cmd in ("basis", "szego", "equidist"):
        js = rng("j")
        series = config.get("series", "six")
        if js is None and cmd != "basis":
            v.append("j: required in single mode")
        elif js:
            if config.get("N") is not None and min(js) <= config["N"]:
                v.append("N: N must be < birth j")
            if not set(js) <= set(BIRTHS.get(series, ())):
                v.append(f"j: not a generation of birth of series {series!r} up to {szego.MQ_CAP}")
            if config.get("m_q") is not None and config["m_q"] < max(js):
                v.append("m_q: sampling level must be >= every birth j")
    if config.get("N") is not None and config["N"] < 0:
        v.append("N: must be >= 0")
    if config.get("m_q") is not None and config["m_q"] > szego.MQ_CAP:
        v.append("m_q: desk-scale cap exceeded")
    if cmd in ("szego", "equidist"):
        fspec = config.get("f")
        if fspec is None:
            v.append("f: required")
        else:
            try:
                f = parse_function_spec(fspec)
            except (ValueError, SyntaxError) as exc:
                v.append(f"f: {exc}")
                f = None
            if f is not None and hasattr(f, "coefficients") and np.min(f.coefficients) <= 0:
                v.append("f: positivity required")
            if f is not None and hasattr(f, "value") and f.value <= 0:
                v.append("f: positivity required")
        if cmd == "equidist" and config.get("functional"):
            try:
                parse_functional_spec(config["functional"])
            except (ValueError, SyntaxError) as exc:
                v.append(f"F: {exc}")
    return v


def _csv_header(config):
    return [f"# config_hash={config_hash(config)}"]


def _write_summary(config, results, timings, path):
    """`timings` holds measured wall times; like the timestamp they vary from
    run to run, so they stay outside `results`, the config hash and the CSVs."""
    payload = {
        "config": {k: v for k, v in config.items() if k != "tolerances"},
        "tolerances": config["tolerances"],
        "config_hash": config_hash(config),
        "seed": config["seed"],
        "timestamp": time.time(),
        "results": results,
        "timings": timings,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def run(config):
    """Execute a validated config; returns the summary dict."""
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    cmd = config["command"]
    header = _csv_header(config)
    results, timings = {}, {}

    if cmd == "topology":
        topo = topology.level_topology(int(config["m"]))
        vp = os.path.join(out, "vertices.csv")
        topology.export_vertex_table(topo, vp, header_lines=header)
        topology.export_cell_table(topo, os.path.join(out, "cells.csv"), header_lines=header)
        results = {"n_vertices": topo.n_vertices, "n_cells": len(topo.cells)}

    elif cmd == "spectrum":
        table = decimation.enumerate_spectrum(int(config["m"]))
        decimation.export_spectrum_csv(table, os.path.join(out, "spectrum.csv"), header)
        results = {"entries": len(table.entries), "total_multiplicity": table.total_multiplicity}

    elif cmd == "basis":
        desc = szego._canonical_descriptor(config["series"], config["j"], config["m_q"])
        raw = eigenbasis.eigenspace_vectors(desc, config["m_q"])
        basis = eigenbasis.localize_basis(raw, desc, config["m_q"], config["N"])
        eigenbasis.export_basis_csv(basis, os.path.join(out, "basis.csv"), header)
        results = {
            "dimension": basis.dimension,
            "localized": basis.localized_count,
            "nonlocalized": basis.nonlocalized_count,
            "max_gram_deviation": eigenbasis.orthonormality_check(basis),
        }

    elif cmd == "szego":
        f = parse_function_spec(config["f"])
        mode = config.get("mode", "single")
        scale = config.get("N")
        if mode == "single":
            records = szego.szego_single_eigenspace_sweep(
                f, config.get("series", "six"), parse_range(config["j"]), scale,
                m_q=config.get("m_q"))
        else:
            records = szego.szego_cutoff_sweep(f, parse_range(config["m"]), scale)
        szego.export_records_csv(records, os.path.join(out, f"szego_{mode}.csv"), header)
        szego.export_loglog_csv(records, os.path.join(out, f"szego_{mode}_loglog.csv"), header)
        beta_hat, r2 = szego.fit_rate(records)
        results = {
            "records": len(records),
            "errors": [r.error for r in records],
            "fitted_exponent": beta_hat,
            "r_squared": r2,
            "beta_alpha_1": szego.beta_exponent(1.0),
            "beta_tilde_alpha_1": szego.beta_tilde_exponent(1.0),
        }
        timings = {"record_runtime_s": [r.runtime for r in records]}

    elif cmd == "equidist":
        f = parse_function_spec(config["f"])
        fname, func = parse_functional_spec(config.get("functional"))
        mode = config.get("mode", "single")
        scale = config.get("N")
        rows = []
        if mode == "single":
            for j in parse_range(config["j"]):
                mq = szego.default_sample_level(j)
                desc = szego._canonical_descriptor(config.get("series", "six"), j, mq)
                basis = eigenbasis.localize_basis(
                    eigenbasis.eigenspace_vectors(desc, mq), desc, mq, scale)
                topo = topology.level_topology(mq)
                op = szego.assemble_compressed(f.sample(topo)[topo.interior_indices], basis)
                spec, riem, gap = szego.equidistribution_compare(op, f, func)
                rows.append((j, op.dimension, spec, riem, gap))
        else:
            for m in parse_range(config["m"]):
                op = szego.cutoff_operator(f, m, scale)
                spec, riem, gap = szego.equidistribution_compare(op, f, func)
                rows.append((m, op.dimension, spec, riem, gap))
        path = os.path.join(out, "equidist.csv")
        with open(path, "w", newline="") as fh:
            for line in header:
                fh.write(line + "\n")
            wr = csv.writer(fh)
            wr.writerow(["index", "d", "spectral", "riemann", "gap"])
            for row in rows:
                wr.writerow([row[0], row[1], repr(row[2]), repr(row[3]), repr(row[4])])
        results = {"functional": fname, "gaps": [r[4] for r in rows]}

    elif cmd == "resistance":
        m = int(config["m"])
        rc = laplacian.ResistanceComputer(m)
        topo = rc.graph.topology
        boundary = list(np.nonzero(topo.boundary_mask)[0])
        rng = np.random.default_rng(config["seed"])
        n_triples = int(config.get("triples") or 200)
        path = os.path.join(out, "resistance.csv")
        with open(path, "w", newline="") as fh:
            for line in header:
                fh.write(line + "\n")
            wr = csv.writer(fh)
            wr.writerow(["x", "y", "resistance"])
            pairs = [(boundary[a], boundary[b]) for a in range(3) for b in range(a + 1, 3)]
            for x, y in pairs:
                wr.writerow([int(x), int(y), repr(rc.resistance(x, y))])
        violations = 0
        for _ in range(n_triples):
            x, y, z = rng.choice(topo.n_vertices, size=3, replace=False)
            if rc.resistance(x, z) > rc.resistance(x, y) + rc.resistance(y, z) + 1e-12:
                violations += 1
        results = {"triangle_violations": violations, "triples": n_triples}

    _write_summary(config, results, timings, os.path.join(out, "summary.json"))
    return results


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_INVALID
    try:
        config = effective_config(args)
    except (OSError, TypeError, ValueError) as exc:
        violations = [str(exc)]
    else:
        violations = validate(config)
    if violations:
        record = {"error": "invalid config", "violations": violations}
        print(json.dumps(record), file=sys.stderr)
        return EXIT_INVALID
    try:
        run(config)
    except (szego.NotPositiveDefiniteError, FunctionalValueError) as exc:
        record = {"error": "numerical failure", "detail": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        out = config.get("out", ".")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "error.json"), "w") as fh:
            json.dump(record, fh)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
