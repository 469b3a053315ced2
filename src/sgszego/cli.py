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

# the config field that holds the index range of each szego / equidist mode
INDEX_FIELDS = {"single": "j", "cutoff": "m"}

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


class ToleranceError(ArithmeticError):
    """Raised when a measured check exceeds its tolerance; `fields` names the
    check, its value and the limit for error.json."""

    def __init__(self, check, value, limit):
        super().__init__(f"{check} check: {value!r} exceeds the tolerance {limit!r}")
        self.fields = {"check": check, "value": value, "limit": limit}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def parse_range(value):
    """Accept 4, "4", "2..5" or [2, 3, 4]; raise ValueError on anything else."""
    if value is None:
        return None
    if _is_int(value):
        return [value]
    if isinstance(value, (list, tuple)) and all(_is_int(v) for v in value):
        return list(value)
    if not isinstance(value, str):
        raise ValueError(f"not a level range: {value!r}")
    if ".." in value:
        lo, hi = value.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(value)]


def parse_functional_spec(spec):
    if spec is None or spec == "log":
        return "log", szego.checked("F=log", math.log)
    if spec.startswith("power:"):
        p = float(spec.split(":", 1)[1])
        return spec, szego.checked(f"F={spec}", lambda x: x ** p)
    if spec.startswith("expr:"):
        expr = spec.split(":", 1)[1]
        code = compile(expr, "<functional>", "eval")
        return spec, szego.checked(
            f"F={spec}", lambda x: eval(code, {"__builtins__": {}}, {"x": x, "math": math}))
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
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise ValueError("config: a JSON object of fields required")
        # null stands for an absent field, as an omitted flag does
        config.update((key, val) for key, val in fields.items() if val is not None)
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
    given = config.get("tolerances", {})
    if not isinstance(given, dict):
        raise ValueError("tolerances: an object of name: value pairs required")
    for name, value in list(given.items()) + flags:
        if name not in tolerances:
            raise ValueError(f"tol: unknown tolerance {name!r}")
        tolerances[name] = float(value)
        if not 0.0 <= tolerances[name] < math.inf:
            raise ValueError(f"tol: {name} must be a finite non-negative number")
    return tolerances


def _type_violations(config, cmd):
    """Fields whose JSON type is not the one the run reads them as; a config
    file can hold any type, and the later checks compare the values."""
    v = []
    ints, ranges = ["N", "m_q", "triples", "seed"], ["j", "m"]
    if cmd in szego.LEVEL_CAPS or cmd == "basis":  # one level, not a range
        level = "j" if cmd == "basis" else "m"
        ints.append(level)
        ranges.remove(level)
    for key in ints:
        if config.get(key) is not None and not _is_int(config[key]):
            v.append(f"{key}: integer required")
    for key in ranges:
        try:
            parse_range(config.get(key))
        except ValueError:
            v.append(f"{key}: level range required, e.g. 4, \"2..5\" or [2, 3]")
    for key in ("mode", "series", "f", "functional", "out"):
        if config.get(key) is not None and not isinstance(config[key], str):
            v.append(f"{key}: string required")
    return v


def validate(config):
    """Empty list iff the config is runnable; violations name field+constraint."""
    cmd = config.get("command")
    if cmd not in {"topology", "spectrum", "basis", "szego", "equidist", "resistance"}:
        return ["command: unknown or missing"]

    v = _type_violations(config, cmd)
    if v:
        return v

    def rng(key):
        r = parse_range(config.get(key))
        if r is not None and not r:
            v.append(f"{key}: range must be nonempty")
        return r

    if cmd in szego.LEVEL_CAPS:
        m = config.get("m")
        lo, hi = (0 if cmd == "topology" else 1), szego.LEVEL_CAPS[cmd]
        if m is None or not lo <= m <= hi:
            v.append(f"m: required level in {lo}..{hi} (desk-scale cap of {cmd})")
    if cmd == "resistance" and config.get("triples") is not None and config["triples"] < 0:
        v.append("triples: must be >= 0")
    if cmd == "basis":
        for key in ("series", "j", "N", "m_q"):
            if config.get(key) is None:
                v.append(f"{key}: required")
    sample_level = None  # the coarsest level the run samples f at
    mode = config.get("mode", "single")
    if cmd in ("szego", "equidist") and mode not in ("single", "cutoff"):
        v.append("mode: must be single or cutoff")
    elif cmd in ("szego", "equidist") and mode == "cutoff":
        if config.get("m_q") is not None:
            v.append("m_q: single mode only; cutoff mode samples each level m at its own default")
        ms = rng("m")
        if ms is None:
            v.append("m: required in cutoff mode")
        elif ms and not 1 <= min(ms) <= max(ms) <= szego.MQ_CAP:
            v.append(f"m: levels must lie in 1..{szego.MQ_CAP}")
        elif ms:
            sample_level = szego.default_sample_level(0, min(ms))
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
            mq = config.get("m_q")
            if mq is not None and mq < max(js):
                v.append("m_q: sampling level must be >= every birth j")
            sample_level = mq if mq is not None else szego.default_sample_level(min(js))
    if config.get("N") is not None and config["N"] < 0:
        v.append("N: must be >= 0")
    if config["seed"] < 0:
        v.append("seed: must be >= 0")
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
            scale = getattr(f, "scale", 0)
            if sample_level is not None and scale > sample_level:
                v.append(f"f: its 3^{scale} cells are finer than the sampling level {sample_level}")
        if cmd == "equidist" and config.get("functional") is not None:
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
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)


def _sweep_args(config):
    """(f, mode, indices, scale, series, m_q) of a szego or equidist config:
    the index range is --j in single mode and --m in cutoff mode."""
    mode = config.get("mode", "single")
    indices = parse_range(config[INDEX_FIELDS[mode]])
    return (parse_function_spec(config["f"]), mode, indices, config.get("N"),
            config.get("series", "six"), config.get("m_q"))


def run(config):
    """Execute a validated config; returns the summary dict."""
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    cmd = config["command"]
    header = _csv_header(config)
    results, timings = {}, {}

    if cmd == "topology":
        topo = topology.level_topology(config["m"])
        vp = os.path.join(out, "vertices.csv")
        topology.export_vertex_table(topo, vp, header_lines=header)
        topology.export_cell_table(topo, os.path.join(out, "cells.csv"), header_lines=header)
        results = {"n_vertices": topo.n_vertices, "n_cells": len(topo.cell_vertices)}

    elif cmd == "spectrum":
        table = decimation.enumerate_spectrum(config["m"])
        decimation.export_spectrum_csv(table, os.path.join(out, "spectrum.csv"), header)
        results = {"entries": len(table.entries), "total_multiplicity": table.total_multiplicity}

    elif cmd == "basis":
        desc = szego._canonical_descriptor(config["series"], config["j"], config["m_q"])
        basis = eigenbasis.localize_basis(desc, config["m_q"], config["N"])
        deviation = eigenbasis.orthonormality_check(basis)
        topo = topology.level_topology(config["m_q"])
        full = np.zeros((topo.n_vertices, basis.dimension))
        full[topo.interior_indices] = basis.vectors
        residual = laplacian.eigen_residual(config["m_q"], full, desc.gamma_at(config["m_q"]))
        for check, value in (("gram", deviation), ("eigen_residual", residual)):
            if value > config["tolerances"][check]:
                raise ToleranceError(check, value, config["tolerances"][check])
        eigenbasis.export_basis_csv(basis, os.path.join(out, "basis.csv"), header)
        results = {
            "dimension": basis.dimension,
            "localized": basis.localized_count,
            "nonlocalized": basis.nonlocalized_count,
            "max_gram_deviation": deviation,
            "max_eigen_residual": residual,
        }

    elif cmd == "szego":
        mode = config.get("mode", "single")
        records = szego.szego_sweep(*_sweep_args(config))
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
        fname, func = parse_functional_spec(config.get("functional"))
        f, *sweep = _sweep_args(config)
        rows = [(index, op.dimension, *szego.equidistribution_compare(op, f, func))
                for index, op in szego.operators(f, *sweep)]
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
        topo = topology.level_topology(config["m"])
        boundary = np.nonzero(topo.boundary_mask)[0]
        bx, by = boundary[[0, 0, 1]], boundary[[1, 2, 2]]  # the three boundary pairs
        rng = np.random.default_rng(config["seed"])
        n_triples = config.get("triples", 200)
        x, y, z = np.array([rng.choice(topo.n_vertices, size=3, replace=False)
                            for _ in range(n_triples)], dtype=np.int64).reshape(-1, 3).T
        start = time.perf_counter()
        rc = laplacian.ResistanceComputer(config["m"])
        boundary_r = rc.resistance(bx, by).tolist()
        r_xz, r_xy, r_yz = rc.resistance(np.concatenate([x, x, y]),
                                         np.concatenate([z, y, z])).reshape(3, -1)
        timings = {"resistance_s": time.perf_counter() - start}
        path = os.path.join(out, "resistance.csv")
        with open(path, "w", newline="") as fh:
            for line in header:
                fh.write(line + "\n")
            wr = csv.writer(fh)
            wr.writerow(["x", "y", "resistance"])
            wr.writerows(zip(bx.tolist(), by.tolist(), map(repr, boundary_r)))
        violations = int(np.count_nonzero(r_xz > r_xy + r_yz + 1e-12))
        results = {"triangle_violations": violations, "triples": n_triples,
                   "max_boundary_deviation": max(abs(r - 2.0 / 3.0) for r in boundary_r)}

    _write_summary(config, results, timings, os.path.join(out, "summary.json"))
    return results


# every non-finite value of a multiplier, a functional or a compressed block
# is caught by an explicit check (exit 2 or 3), so NumPy's own warnings would
# only print ahead of the one-line JSON error record
@np.errstate(all="ignore")
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
    except (szego.NotPositiveDefiniteError, szego.FunctionalValueError, ToleranceError) as exc:
        record = {"error": "numerical failure", "detail": str(exc), **getattr(exc, "fields", {})}
        print(json.dumps(record), file=sys.stderr)
        out = config.get("out", ".")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "error.json"), "w") as fh:
            json.dump(record, fh)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
