"""Configuration-driven command line front end.

    sgszego [--config FILE] COMMAND [--flag value | --flag=value ...]

A run is described by a JSON config document; the flags of COMMANDS override
its fields, and `validate` holds both to the same checks.  `export_csv`, the
package's one CSV writer, embeds the hash of the effective config in a
leading comment line, so re-running the same config and seed reproduces
byte-identical CSV bodies.  Exit codes: 0 success, 2 invalid config (one
JSON record on stderr), 3 numerical failure.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
import resource
import sys
import time
from itertools import repeat

import numpy as np

from . import decimation, laplacian, szego, topology
from .functions import parse_function_spec

# the interpreter's built-in SHA-256, which loads no OpenSSL (hashlib's import
# does, at about 3.5 MB of peak memory); hashlib only on a build without it
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

DEFAULT_TOLERANCES = {
    "gram": 1e-10,
    "eigen_residual": 1e-9,
    "logdet_rel": 1e-8,
}

# desk-scale caps on --m of the commands that build one level: the
# `topology` tables of `topology` and `resistance` and the `spectrum` birth
# groups grow about 3x and 2x per level (in a fresh process `resistance
# --m 12` runs in about 0.3 s and 122 MB, `topology --m 12` in 4.4 s and
# 122 MB, `spectrum --m 20` in 8.6 s and 596 MB)
LEVEL_CAPS = {"resistance": 12, "topology": 12, "spectrum": 20}

# desk-scale cap on resistance --triples: the pairs are answered a chunk at
# a time, and 10^6 triples at --m 12 take about 5.3 s and 197 MB in a fresh
# process, where building the topology tables of level 12 alone peaks at
# 122 MB
TRIPLES_CAP = 10**6

# vertex and cell rows formatted at a time by the topology tables, which
# bounds their memory
EXPORT_CHUNK = 1 << 15

# the basis.csv tag of a remainder column, whose cell is coarser than the N-cells
NONLOCALIZED = "nonlocalized"

# the series choices of each command that reads a series, for flags and
# config files alike
SERIES_CHOICES = {"basis": ("two", "five", "six"), "szego": ("five", "six"),
                  "equidist": ("five", "six")}

# the fields each command takes on the command line, each as --<field> but
# m_q as --m-q and functional as --F; every command also takes out, seed and tol
COMMANDS = {"topology": ("m",), "spectrum": ("m",), "basis": ("series", "j", "N", "m_q"),
            "szego": ("mode", "series", "j", "m", "N", "m_q", "f"),
            "equidist": ("mode", "series", "j", "m", "N", "f", "functional"),
            "resistance": ("m", "triples")}

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
    return sha256(blob.encode()).hexdigest()[:16]


def _flag(field):
    return "--" + {"m_q": "m-q", "functional": "F"}.get(field, field)


def usage():
    """The help text, each command's flags read off COMMANDS."""
    return "\n".join(
        ["usage: sgszego [-h] [--config FILE] COMMAND [--flag value | --flag=value ...]",
         "every command also takes --out DIR, --seed INT and --tol NAME=VALUE (repeatable)"]
        + [f"  {cmd:<11}" + " ".join(map(_flag, fields)) for cmd, fields in COMMANDS.items()])


def parse_argv(argv):
    """(config file or None, fields) of `[--config FILE] COMMAND [--flag value
    | --flag=value ...]`, or (None, None) for -h/--help; the fields always hold
    the command, None if it is missing.  Values are taken verbatim, an
    `int_fields` one as an int if int() reads it; --tol values gather in a list."""
    fields, flags, ints = {"command": None}, {"--config": "config"}, ()
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None, None
        if fields["command"] is None and arg in COMMANDS:
            fields["command"] = arg
            flags = {_flag(field): field for field in COMMANDS[arg] + ("out", "seed", "tol")}
            ints = int_fields(arg)
            continue
        flag, eq, value = arg.partition("=")
        field = flags.get(flag)
        if field is None:
            raise ValueError(f"{flag.lstrip('-')}: {flag} is not a flag of {fields['command']}"
                             if fields["command"] else "command: unknown or missing")
        value = value if eq else next(args, None)
        if value is None:
            raise ValueError(f"{field}: {flag} needs a value")
        if field in ints:
            try:
                value = int(value)
            except ValueError:
                pass  # `validate` reports it
        fields[field] = fields.get("tol", []) + [value] if field == "tol" else value
    return fields.pop("config", None), fields


def effective_config(argv):
    """The config of argv's flags over its config file's fields, or None for help."""
    path, flags = parse_argv(argv) if argv else (None, None)
    if flags is None:
        return None
    config = {}
    if path is not None and flags["command"]:  # no command is refused before a file is read
        with open(path) as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise ValueError("config: a JSON object of fields required")
        known = {"command", "out", "seed", "tolerances"}.union(*COMMANDS.values())
        unknown = sorted(set(fields) - known)
        if unknown:
            raise ValueError(f"{unknown[0]}: not a field of any command")
        # null stands for an absent field, as an omitted flag does
        config.update((key, val) for key, val in fields.items() if val is not None)
    config.update(flags)
    config["tolerances"] = _tolerances(config)
    config.setdefault("out", ".")
    config.setdefault("seed", 0)
    return config


def _tolerances(config):
    """DEFAULT_TOLERANCES updated from the config file, then from --tol flags."""
    tolerances = dict(DEFAULT_TOLERANCES)
    flags = [item.partition("=") for item in config.pop("tol", [])]
    if not all(eq for _, eq, _ in flags):
        raise ValueError("tol: name=value required, e.g. gram=1e-10")
    given = config.get("tolerances", {})
    if not isinstance(given, dict):
        raise ValueError("tolerances: an object of name: value pairs required")
    for name, value in list(given.items()) + [flag[::2] for flag in flags]:
        if name not in tolerances:
            raise ValueError(f"tol: unknown tolerance {name!r}")
        try:  # a bool is no number here, as it is no integer in `_is_int`
            tolerances[name] = math.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError):
            tolerances[name] = math.nan
        if not 0.0 <= tolerances[name] < math.inf:
            raise ValueError(f"tol: {name} must be a finite non-negative number")
    return tolerances


def int_fields(cmd):
    """The fields that `cmd` reads as integers: the one level of `topology`,
    `spectrum`, `resistance` and `basis` is one, a sweep's j and m are ranges."""
    level = {"basis": "j", **dict.fromkeys(LEVEL_CAPS, "m")}.get(cmd)
    return ("N", "m_q", "triples", "seed") + ((level,) if level else ())


def _type_violations(config, cmd):
    """Fields whose JSON type is not the one the run reads them as; a config
    file can hold any type, and the later checks compare the values."""
    v, ints = [], int_fields(cmd)
    for key in ints:
        if config.get(key) is not None and not _is_int(config[key]):
            v.append(f"{key}: integer required")
    for key in [key for key in ("j", "m") if key not in ints]:
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
    if cmd not in COMMANDS:
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
        v += [f"{key}: required" for key in COMMANDS[cmd] if config.get(key) is None]
    bad_series = cmd in SERIES_CHOICES and config.get("series", "six") not in SERIES_CHOICES[cmd]
    if bad_series:
        v.append(f"series: must be one of {', '.join(SERIES_CHOICES[cmd])} for {cmd}")
    # checked before planning, whose groups hold a sign per level up to m_q
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
        elif not over_cap and not bad_series and (config.get("N") or 0) >= 0:
            # a negative N is reported below
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


def _spectrum_rows(groups):
    """The birth groups' eigenvalues as spectrum.csv rows in ascending order of
    lambda, ties in group order, EXPORT_CHUNK rows at a time; a sign word is
    its "+"/"-" bytes viewed as one string, as in `topology.word_strs`."""
    words = [c.view(f"S{c.shape[1]}")[:, 0] if c.shape[1] else np.full(len(c), b"-") for c in (
        np.where(g.signs == 1, ord("+"), ord("-")).astype(np.uint8, order="C") for g in groups)]
    columns = [np.concatenate(parts) for parts in zip(*(
        (np.full(len(g), i), word, g.fixation, g.gammas[:, -1], g.lam)
        for i, (g, word) in enumerate(zip(groups, words))))]
    order = np.argsort(columns[-1], kind="stable")
    for lo in range(0, len(order), EXPORT_CHUNK):
        part = [column[order[lo:lo + EXPORT_CHUNK]].tolist() for column in columns]
        yield from ((groups[i].series, groups[i].birth, word.decode(), *values,
                     groups[i].multiplicity) for i, word, *values in zip(*part))


def _basis_rows(vectors, level, group, localized):
    """The interior rows of one column of `vectors` (the basis of a group of
    one word on the vertex rows of V_level) at a time, tagged with the word
    of its own cell if it is one of the `localized` first columns and
    NONLOCALIZED otherwise."""
    interior = topology.level_topology(level).interior_indices
    ids = interior.tolist()
    depth, rank = szego.column_cells(group)
    # the columns run deepest level first, so grouping by depth keeps their order
    tags = [w for k in np.unique(depth[:localized])[::-1]
            for w in topology.word_strs(rank[depth == k], k)]
    tags += [NONLOCALIZED] * (len(depth) - localized)
    for c, tag in enumerate(tags):
        yield from zip(ids, repeat(c), vectors[interior, c].tolist(), repeat(tag))


def _draw_below(rng, bound, count):
    """`count` integers uniform on 0..bound-1, 1 <= bound <= 2^32, from the
    32-bit words of the random.Random `rng`: a word is kept if it lies below
    the largest multiple of `bound` in 2^32 and taken mod `bound`, and the
    rejected ones are drawn again."""
    last = 0xFFFFFFFF - (1 << 32) % bound  # the largest word kept
    kept = np.empty(0, dtype=np.uint32)
    while len(kept) < count:
        words = np.frombuffer(rng.randbytes(4 * (count - len(kept))), dtype="<u4")
        kept = np.concatenate([kept, words[words <= last]])
    return (kept % bound).astype(np.int64)


def _draw_triples(rng, n, count):
    """`count` ordered triples of distinct vertices in 0..n-1, uniform over
    all such triples, drawn at once from the random.Random `rng`: y skips x,
    and z skips the smaller, then the larger, of x and y."""
    x = _draw_below(rng, n, count)
    y = _draw_below(rng, n - 1, count)
    y += y >= x
    z = _draw_below(rng, n - 2, count)
    z += z >= np.minimum(x, y)
    z += z >= np.maximum(x, y)
    return x, y, z


def _write_summary(config, digest, results, timings, path):
    """`digest` is the config's `config_hash`.  `timings` holds measured wall
    times and the peak resident memory; like the timestamp they vary from run
    to run, so they stay outside `results`, the config hash and the CSVs."""
    payload = {
        "config": {k: v for k, v in config.items() if k != "tolerances"},
        "tolerances": config["tolerances"],
        "config_hash": digest,
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
    """Execute a validated config whose `out` directory exists; returns the
    summary dict."""
    out = config["out"]
    cmd = config["command"]
    digest = config_hash(config)
    header = [f"# config_hash={digest}"]
    results, timings = {}, {}

    if cmd == "topology":
        topo = topology.level_topology(config["m"])
        export_csv(os.path.join(out, "vertices.csv"), header,
                   ["id", "word", "corner", "x", "y", "is_boundary", "weight"], _vertex_rows(topo))
        export_csv(os.path.join(out, "cells.csv"), header,
                   ["rank", "word", "v1", "v2", "v3"], _cell_rows(topo))
        results = {"n_vertices": topo.n_vertices, "n_cells": len(topo.cell_vertices)}

    elif cmd == "spectrum":
        groups = decimation.enumerate_spectrum(config["m"])
        export_csv(os.path.join(out, "spectrum.csv"), header,
                   ["series", "birth", "signs", "fixation", "gamma_m", "lambda", "multiplicity"],
                   _spectrum_rows(groups))
        results = {"entries": sum(map(len, groups)),
                   "total_multiplicity": sum(len(group) * group.multiplicity for group in groups)}

    elif cmd == "basis":
        ((_, (group,), m_q),) = szego.sweep_plan("single", [config["j"]], config["N"],
                                                 config["series"], config["m_q"])
        localized = szego.localized_columns(group, config["N"])
        # the columns are built once, on the vertex rows of V_{m_q}, for the
        # Gram check, the residual and the export
        vectors = szego.basis_columns(group, m_q)[0]
        deviation = szego.orthonormality_check(vectors, m_q)
        residual = laplacian.eigen_residual(m_q, vectors, group.gamma(m_q)[0])
        for check, value in (("gram", deviation), ("eigen_residual", residual)):
            if value > config["tolerances"][check]:
                raise ToleranceError(check, value, config["tolerances"][check])
        export_csv(os.path.join(out, "basis.csv"), header, ["vertex_id", "column", "value", "tag"],
                   _basis_rows(vectors, m_q, group, localized))
        results = {
            "dimension": vectors.shape[1],
            "localized": localized,
            "nonlocalized": vectors.shape[1] - localized,
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
        n_triples = config.get("triples", 200)
        x, y, z = _draw_triples(random.Random(config["seed"]), topo.n_vertices, n_triples)
        start = time.perf_counter()
        rc = laplacian.ResistanceComputer(config["m"])
        # one query: the boundary pairs, then the pairs (x, z), (x, y), (y, z)
        values = rc.resistance(np.concatenate([bx, x, x, y]), np.concatenate([by, z, y, z]))
        boundary_r = values[:3].tolist()
        r_xz, r_xy, r_yz = values[3:].reshape(3, -1)
        timings = {"resistance_s": time.perf_counter() - start}
        export_csv(os.path.join(out, "resistance.csv"), header, ["x", "y", "resistance"],
                   zip(bx.tolist(), by.tolist(), boundary_r))
        violations = int(np.count_nonzero(r_xz > r_xy + r_yz + 1e-12))
        results = {"triangle_violations": violations, "triples": n_triples,
                   "max_boundary_deviation": max(abs(r - 2.0 / 3.0) for r in boundary_r)}

    # the process's peak resident set so far: macOS reports ru_maxrss in
    # bytes, Linux and the BSDs in KiB
    per_mb = 1 << (20 if sys.platform == "darwin" else 10)
    timings["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / per_mb
    _write_summary(config, digest, results, timings, os.path.join(out, "summary.json"))
    return results


# every non-finite value of a multiplier, a functional or a compressed block
# is caught by an explicit check (exit 2 or 3), so NumPy's own warnings would
# only print ahead of the one-line JSON error record
@np.errstate(all="ignore")
def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = effective_config(argv)
    except (OSError, TypeError, ValueError) as exc:
        violations = [str(exc)]
    else:
        if config is None:
            print(usage())
            return EXIT_OK if argv else EXIT_INVALID
        violations = validate(config)
    if not violations:
        try:
            os.makedirs(config["out"], exist_ok=True)
            run(config)
        except (szego.NotPositiveDefiniteError, szego.FunctionalValueError, ToleranceError) as exc:
            record = {"error": "numerical failure", "detail": str(exc),
                      **getattr(exc, "fields", {})}
            print(json.dumps(record), file=sys.stderr)
            try:
                with open(os.path.join(config["out"], "error.json"), "w") as fh:
                    json.dump(record, fh)
            except OSError:
                pass  # the record is on stderr
            return EXIT_NUMERICAL
        except OSError as exc:  # the directory or an output name taken, say by a directory
            violations = [f"out: {exc}"]
        else:
            return EXIT_OK
    record = {"error": "invalid config", "violations": violations}
    print(json.dumps(record), file=sys.stderr)
    return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
