"""Configuration-driven command line front end.

A run is described by a JSON config document; command line flags override
file fields.  `export_csv`, the package's one CSV writer, embeds the hash of
the effective config in a leading comment line, so re-running the same
config and seed reproduces byte-identical CSV bodies.  Exit codes:
0 success, 2 invalid config, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
from itertools import repeat

import numpy as np

from . import decimation, eigenbasis, laplacian, szego, topology
from .functions import parse_function_spec

DEFAULT_TOLERANCES = {
    "gram": 1e-10,
    "eigen_residual": 1e-9,
    "logdet_rel": 1e-8,
}

# desk-scale caps on --m of the commands that build one level: the
# `topology` tables of `topology` and `resistance` and the `spectrum`
# descriptors grow about 3x and 2x per level (`resistance --m 12` runs in
# about 0.6 s and 170 MB)
LEVEL_CAPS = {"resistance": 12, "topology": 12, "spectrum": 20}

# desk-scale cap on resistance --triples: the pairs are answered a chunk at
# a time, and 10^6 triples at --m 12 take about 15 s and 225 MB, of which
# the level-12 topology tables are about 170 MB
TRIPLES_CAP = 10**6

# vertex and cell rows formatted at a time by the topology tables, which
# bounds their memory
EXPORT_CHUNK = 1 << 15

# the basis.csv tag of a remainder column, whose cell is coarser than the N-cells
NONLOCALIZED = "nonlocalized"

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
    """Accept 4, "4", "2..5" (kept a range, not a list) or [2, 3, 4]; raise
    ValueError on anything else."""
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
        return range(int(lo), int(hi) + 1)
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
    if cmd in LEVEL_CAPS or cmd == "basis":  # one level, not a range
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

    if cmd in LEVEL_CAPS:
        m = config.get("m")
        lo, hi = (0 if cmd == "topology" else 1), LEVEL_CAPS[cmd]
        if m is None or not lo <= m <= hi:
            v.append(f"m: required level in {lo}..{hi} (desk-scale cap of {cmd})")
    if cmd == "resistance" and not 0 <= config.get("triples", 0) <= TRIPLES_CAP:
        v.append(f"triples: must lie in 0..{TRIPLES_CAP} (desk-scale cap)")
    if cmd == "basis":
        for key in ("series", "j", "N", "m_q"):
            if config.get(key) is None:
                v.append(f"{key}: required")
    # checked before planning, whose descriptors hold a sign per level up to m_q
    over_cap = config.get("m_q") is not None and config["m_q"] > szego.MQ_CAP
    if over_cap:
        v.append("m_q: desk-scale cap exceeded")
    sample_level = None  # the coarsest level the run samples f at
    mode = "single" if cmd == "basis" else config.get("mode", "single")
    if cmd in ("szego", "equidist") and mode not in szego.INDEX_FIELDS:
        v.append("mode: must be single or cutoff")
    elif cmd in ("basis", "szego", "equidist"):
        field = szego.INDEX_FIELDS[mode]
        indices = parse_range(config.get(field))
        if mode == "cutoff" and config.get("m_q") is not None:
            v.append("m_q: single mode only; cutoff mode samples each level m at its own default")
        elif indices is None:
            if cmd != "basis":  # basis has reported every missing field
                v.append(f"{field}: required in {mode} mode")
        elif not indices:
            v.append(f"{field}: range must be nonempty")
        elif not over_cap and (config.get("N") or 0) >= 0:  # a negative N is reported below
            try:
                plan = szego.sweep_plan(mode, indices, config.get("N"),
                                        config.get("series", "six"), config.get("m_q"))
                sample_level = min(level for _, _, level in plan)
            except ValueError as exc:
                v.append(str(exc))
    if config.get("N") is not None and config["N"] < 0:
        v.append("N: must be >= 0")
    if config["seed"] < 0:
        v.append("seed: must be >= 0")
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


def export_csv(path, header_lines, fields, rows):
    """Each header line ended by "\n", then the field row and `rows` in the
    csv module's dialect; floats print as their shortest repr, so rows hold
    Python floats, not NumPy scalars.  `rows` may be a generator."""
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in header_lines)
        wr = csv.writer(fh)
        wr.writerow(fields)
        wr.writerows(rows)


def _vertex_rows(topo):
    """EXPORT_CHUNK rows at a time; the weight is the level-m quadrature
    weight, empty at m = 0, where there is no quadrature."""
    weights = topology.quadrature(topo.m) if topo.m >= 1 else None
    for lo in range(0, topo.n_vertices, EXPORT_CHUNK):
        part = slice(lo, lo + EXPORT_CHUNK)
        words = topology.word_strs(topo.rank[part], topo.m)
        yield from zip(range(lo, lo + len(words)), words, topo.corner[part].tolist(),
                       topo.coords[part, 0].tolist(), topo.coords[part, 1].tolist(),
                       topo.boundary_mask[part].astype(int).tolist(),
                       repeat("") if weights is None else weights[part].tolist())


def _cell_rows(topo):
    for lo in range(0, len(topo.cell_vertices), EXPORT_CHUNK):
        part = topo.cell_vertices[lo:lo + EXPORT_CHUNK]
        ranks = range(lo, lo + len(part))
        yield from zip(ranks, topology.word_strs(np.asarray(ranks), topo.m), *part.T.tolist())


def _basis_rows(basis, full):
    """The interior rows of one column of `full` (the basis on every vertex
    of V_level) at a time, tagged with the word of its own cell if it is
    localized and NONLOCALIZED otherwise."""
    interior = topology.level_topology(basis.level).interior_indices
    ids = interior.tolist()
    depth, rank = basis.column_cells
    # the columns run deepest level first, so grouping by depth keeps their order
    localized = np.unique(depth[:basis.localized_count])[::-1]
    tags = [w for k in localized for w in topology.word_strs(rank[depth == k], k)]
    tags += [NONLOCALIZED] * basis.nonlocalized_count
    for c, tag in enumerate(tags):
        yield from zip(ids, repeat(c), full[interior, c].tolist(), repeat(tag))


def _draw_triples(rng, n, count):
    """`count` ordered triples of distinct vertices in 0..n-1, uniform as
    rng.choice(n, 3, replace=False) is, drawn at once: y skips x, and z
    skips the smaller, then the larger, of x and y."""
    x = rng.integers(n, size=count)
    y = rng.integers(n - 1, size=count)
    y += y >= x
    z = rng.integers(n - 2, size=count)
    z += z >= np.minimum(x, y)
    z += z >= np.maximum(x, y)
    return x, y, z


def _write_summary(config, results, timings, path):
    """`timings` holds measured wall times and the peak resident memory; like
    the timestamp they vary from run to run, so they stay outside `results`,
    the config hash and the CSVs."""
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
    indices = parse_range(config[szego.INDEX_FIELDS[mode]])
    return (parse_function_spec(config["f"]), mode, indices, config.get("N"),
            config.get("series", "six"), config.get("m_q"))


def run(config):
    """Execute a validated config; returns the summary dict."""
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    cmd = config["command"]
    header = [f"# config_hash={config_hash(config)}"]
    results, timings = {}, {}

    if cmd == "topology":
        topo = topology.level_topology(config["m"])
        export_csv(os.path.join(out, "vertices.csv"), header,
                   ["id", "word", "corner", "x", "y", "is_boundary", "weight"], _vertex_rows(topo))
        export_csv(os.path.join(out, "cells.csv"), header,
                   ["rank", "word", "v1", "v2", "v3"], _cell_rows(topo))
        results = {"n_vertices": topo.n_vertices, "n_cells": len(topo.cell_vertices)}

    elif cmd == "spectrum":
        table = decimation.enumerate_spectrum(config["m"])
        export_csv(os.path.join(out, "spectrum.csv"), header,
                   ["series", "birth", "signs", "fixation", "gamma_m", "lambda", "multiplicity"],
                   ([d.series, d.birth, "".join("+" if e == 1 else "-" for e in d.signs) or "-",
                     d.fixation, d.gammas[-1], d.lam, d.multiplicity] for d in table.entries))
        results = {"entries": len(table.entries), "total_multiplicity": table.total_multiplicity}

    elif cmd == "basis":
        ((_, (desc,), m_q),) = szego.sweep_plan("single", [config["j"]], config["N"],
                                                config["series"], config["m_q"])
        basis = eigenbasis.localize_basis((desc,), m_q, config["N"])
        # the columns are assembled once, for the Gram check, the residual
        # and the export
        vectors = basis.vectors[0]
        deviation = eigenbasis.orthonormality_check(vectors, m_q)
        topo = topology.level_topology(m_q)
        full = np.zeros((topo.n_vertices, basis.dimension))
        full[topo.interior_indices] = vectors
        residual = laplacian.eigen_residual(m_q, full, desc.gamma_at(m_q))
        for check, value in (("gram", deviation), ("eigen_residual", residual)):
            if value > config["tolerances"][check]:
                raise ToleranceError(check, value, config["tolerances"][check])
        export_csv(os.path.join(out, "basis.csv"), header, ["vertex_id", "column", "value", "tag"],
                   _basis_rows(basis, full))
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
        export_csv(os.path.join(out, f"szego_{mode}.csv"), header,
                   ["mode", "index", "d", "logdet_over_d", "integral", "error",
                    "localized_dim", "nonlocalized_dim"],
                   ([r.mode, r.index, r.dimension, r.logdet_over_d, r.integral, r.error,
                     r.localized_dim, r.nonlocalized_dim] for r in records))
        export_csv(os.path.join(out, f"szego_{mode}_loglog.csv"), header, ["log_d", "log_error"],
                   ([math.log(r.dimension), math.log(r.error)] for r in records if r.error > 0.0))
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
        export_csv(os.path.join(out, "equidist.csv"), header,
                   ["index", "d", "spectral", "riemann", "gap"], rows)
        results = {"functional": fname, "gaps": [r[4] for r in rows]}

    elif cmd == "resistance":
        topo = topology.level_topology(config["m"])
        boundary = np.nonzero(topo.boundary_mask)[0]
        bx, by = boundary[[0, 0, 1]], boundary[[1, 2, 2]]  # the three boundary pairs
        rng = np.random.default_rng(config["seed"])
        n_triples = config.get("triples", 200)
        x, y, z = _draw_triples(rng, topo.n_vertices, n_triples)
        start = time.perf_counter()
        rc = laplacian.ResistanceComputer(config["m"])
        boundary_r = rc.resistance(bx, by).tolist()
        r_xz, r_xy, r_yz = rc.resistance(np.concatenate([x, x, y]),
                                         np.concatenate([z, y, z])).reshape(3, -1)
        timings = {"resistance_s": time.perf_counter() - start}
        export_csv(os.path.join(out, "resistance.csv"), header, ["x", "y", "resistance"],
                   zip(bx.tolist(), by.tolist(), boundary_r))
        violations = int(np.count_nonzero(r_xz > r_xy + r_yz + 1e-12))
        results = {"triangle_violations": violations, "triples": n_triples,
                   "max_boundary_deviation": max(abs(r - 2.0 / 3.0) for r in boundary_r)}

    # the process's peak resident set so far; Linux reports ru_maxrss in KiB
    timings["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
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
