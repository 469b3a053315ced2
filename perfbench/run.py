"""Benchmark of the sgszego command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  A workload is a fixed cycle of
`sgszego` CLI invocations whose inputs (f coefficients, resistance triple
seed) are drawn from --seed; the amount of work does not depend on the seed.
Every invocation runs in a fresh interpreter with one BLAS thread, one at a
time: a closed loop with one client.  The process is fresh because the lru
caches on `level_topology` and `cached_dense_spectrum` start empty in every
CLI run, so cold is what a user pays.  Invocations follow the cycle until S
seconds have gone by, the one in flight finishing, and every invocation's
outputs are checked (checks.py).  Import-only processes run between them.

--trace 0 reports the end-to-end metrics:
  setup_s      median time from process launch until `sgszego.cli` is imported,
               over the import-only processes and every invocation
  run_s        wall time of `cli.main(argv)`: each invocation's median over
               the run, summed over the workload's cycle
  peak_rss_mb  largest peak resident set of any one invocation (os.wait4)
  ok_ratio     share of invocations that exited 0 and passed every check
--trace 1 runs the same invocations, then the cycle once more with the
public functions of every module wrapped in spans (spans.py), and reports
the per-layer metrics: self times, call and build counts, and the trace's
own cost.

Metric names and units come from BENCHMARK.json.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the lines before it record the environment and the raw samples.
"""
import argparse
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# import-only processes at the start of a run and after every invocation,
# so the setup_s samples spread over the whole run and the host's slow and
# fast phases within it
SETUP_PROBES, PROBES_PER_INVOCATION = 3, 2
DEADLINE_S = 170  # a run must end within 180 s; no invocation starts that could cross this
POLL_S = 0.01
# One BLAS thread, so the times do not depend on whether the second core of a
# shared 2-vCPU host is free: in alternating runs of resistance m=7 the time
# varied by 10% with two threads and by 1.4% with one.  No bytecode files,
# so setup_s includes compiling the package wherever the benchmark runs.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")


def _values(rng, n, lo, hi):
    return ",".join(f"{rng.uniform(lo, hi):.3f}" for _ in range(n))


def single_local(rng):
    return ["szego", "--mode", "single", "--series", "six", "--j", "7", "--N", "4",
            "--f", "simple:" + _values(rng, 3, 1, 3)]


def cutoff_m7(rng):
    return ["szego", "--mode", "cutoff", "--m", "7", "--N", "1",
            "--f", "harmonic:" + _values(rng, 3, 1, 2)]


def resistance_m7(rng):
    return ["resistance", "--m", "7", "--triples", "1000", "--seed", str(rng.randrange(2 ** 31))]


# Each workload is a cycle of invocations; every one draws its inputs from its
# own random.Random(seed), so an invocation's inputs for a seed do not depend
# on the workload it is part of.  szego-m7 starts with the shorter cutoff run,
# which a run of 45 s repeats once.
WORKLOADS = {
    "szego-m7": [cutoff_m7, single_local],
    "resistance-m7": [resistance_m7],
}


def workload_argvs(name, seed):
    return [make(random.Random(seed)) for make in WORKLOADS[name]]


class Runner:
    """Starts child.py processes one at a time inside a scratch directory and
    checks what each invocation wrote."""

    def __init__(self, tmp, reference, deadline):
        self.tmp = tmp
        self.reference = reference
        self.deadline = deadline
        self.count = 0

    def _next_base(self):
        self.count += 1
        return os.path.join(self.tmp, str(self.count))

    def _launch(self, spec, base):
        """Run one child to completion; returns (its result dict or None,
        exit status, peak RSS in MB, wall seconds, log text)."""
        spec = dict(spec, src=SRC, result=base + ".json")
        with open(base + ".log", "w+") as log:
            spec["launched"] = time.monotonic()
            proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)],
                                    stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                    env=CHILD_ENV)
            try:
                status, usage = self._wait(proc)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
            wall = time.monotonic() - spec["launched"]
            log.seek(0)
            text = log.read()
        try:
            with open(spec["result"]) as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = None
        return result, status, usage.ru_maxrss / 1024.0, wall, text

    def _wait(self, proc):
        """os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be
        a running maximum over every child of the run."""
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_S)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def probe(self):
        """An import-only process: setup time and the environment."""
        result, status, _, _, text = self._launch({"argv": None, "trace": False},
                                                  self._next_base())
        if status != 0 or result is None:
            raise SystemExit(f"perfbench: importing sgszego.cli failed:\n{text[-2000:]}")
        return result

    def invoke(self, argv, trace=False):
        base = self._next_base()
        out = base + "-out"
        spec = {"argv": argv + ["--out", out], "trace": trace,
                "warm_argv": argv + ["--out", out + "-warm"]}
        result, status, rss, wall, text = self._launch(spec, base)
        record = {"argv": argv, "rss_mb": rss, "run_s": wall, "setup_s": None, "problems": []}
        if result is None:
            record["problems"].append(f"no result (status {status}): {text[-2000:]}")
        else:
            record.update(setup_s=result["setup_s"], run_s=result["run_s"])
            if result["exit_code"] != 0:
                record["problems"].append(f"exit {result['exit_code']}: {text[-2000:]}")
            else:
                try:
                    record["problems"] += checks.check(argv, out, self.reference)
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    record["problems"].append(f"malformed output: {type(exc).__name__}: {exc}")
            if trace:
                record.update(trace=result["trace"], warm_run_s=result["warm_run_s"],
                              bytes_written=_bytes_under(out))
                if result["warm_exit_code"] != 0:
                    record["problems"].append(f"warm run exit {result['warm_exit_code']}")
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(out + "-warm", ignore_errors=True)
        return record


def _bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def median_run_s(samples):
    """Each invocation's median wall time over the run, summed over the
    workload's cycle; `samples` holds one list of records per invocation."""
    return sum(statistics.median(r["run_s"] for r in rs) for rs in samples)


def end_to_end(probes, samples):
    records = [r for rs in samples for r in rs]
    setups = [p["setup_s"] for p in probes] + [r["setup_s"] for r in records if r["setup_s"]]
    ok = sum(1 for r in records if not r["problems"])
    return {
        "setup_s": statistics.median(setups),
        "run_s": median_run_s(samples),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "ok_ratio": ok / len(records),
    }


def per_layer(names, traced, samples):
    """Sums over the traced pass; `<layer>.self_s`, `<layer>.calls` and
    `<layer>.builds` are read from the spans of that layer."""
    spans, builds = {}, {}
    max_side = localized = returned = 0
    for r in traced:
        t = r.get("trace")
        if t is None:
            continue
        for name, row in t["spans"].items():
            acc = spans.setdefault(name, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += row["self_s"]
            acc["calls"] += row["calls"]
        for name, n in t["builds"].items():
            builds[name] = builds.get(name, 0) + n
        max_side = max(max_side, t["max_side"])
        localized += t["localized_columns"]
        returned += t["returned_columns"]
    special = {
        "laplacian.dense_spectrum.max_side": max_side,
        "eigenbasis.localized_share": localized / returned if returned else 0.0,
        "cli.bytes_written": sum(r.get("bytes_written", 0) for r in traced),
        "trace.overhead_s": sum(r["run_s"] for r in traced) - median_run_s(samples),
        "trace.warm_run_s": sum(r.get("warm_run_s", 0.0) for r in traced),
    }
    out = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif stat in ("self_s", "calls"):
            out[name] = spans.get(layer, {}).get(stat, 0.0 if stat == "self_s" else 0)
        elif stat == "builds":
            out[name] = builds.get(layer, 0)
        else:
            raise SystemExit(f"perfbench: no rule computes metric {name!r}")
    return out, spans


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn a termination request into an exception, so the child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "sgszego", "cli.py")):
        raise SystemExit(f"perfbench: no sgszego sources in {SRC}; run from the root of a checkout")
    with open(SPEC) as fh:
        spec = json.load(fh)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    argvs = workload_argvs(args.workload, args.seed)

    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(tmp, reference, start + DEADLINE_S)
        probes = [runner.probe() for _ in range(SETUP_PROBES)]
        samples = [[] for _ in argvs]
        measure_start = time.monotonic()
        for n in itertools.count():
            i = n % len(argvs)
            samples[i].append(runner.invoke(argvs[i]))
            probes += [runner.probe() for _ in range(PROBES_PER_INVOCATION)]
            now = time.monotonic()
            # the next invocation takes about as long as its last one; a
            # traced cycle runs every invocation twice, cold and warm
            reserve = samples[(i + 1) % len(argvs)][-1]["run_s"] if n + 1 >= len(argvs) else 0.0
            if args.trace:
                reserve += 3.5 * sum(rs[-1]["run_s"] for rs in samples if rs)
            done = n + 1 >= len(argvs) and now - measure_start >= args.seconds
            if done or now + reserve > runner.deadline:
                break
        if not all(samples):
            raise SystemExit("perfbench: the deadline came before every invocation ran once")
        traced = [runner.invoke(argv, trace=True) for argv in argvs] if args.trace else []

    records = [r for rs in samples for r in rs] + traced
    failed = sum(1 for r in records if r["problems"])
    if args.trace:
        kind = "per_layer"
        values, spans = per_layer([m["name"] for m in spec[kind]], traced, samples)
    else:
        kind = "end_to_end"
        values = end_to_end(probes, samples)
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(values)} differ from BENCHMARK.json {kind}")

    environment = dict(probes[0]["environment"], commit=_git_commit(), workload=args.workload,
                       seed=args.seed, seconds=args.seconds, trace=args.trace, argvs=argvs)
    print("environment", json.dumps(environment))
    print("samples", json.dumps({
        "elapsed_s": time.monotonic() - start,
        "setup_s": [p["setup_s"] for p in probes] + [r["setup_s"] for r in records],
        "run_s": [[r["run_s"] for r in rs] for rs in samples] + [[r["run_s"] for r in traced]],
        "rss_mb": [r["rss_mb"] for r in records],
    }))
    for r in records:
        for problem in r["problems"]:
            print("FAILED", " ".join(r["argv"]), "--", problem)
    if args.trace:
        print(f"{'span':40s} {'calls':>8s} {'self_s':>10s}")
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:40s} {row['calls']:8d} {row['self_s']:10.4f}")
        for r in traced:
            if r.get("trace", {}).get("missing"):
                print("not traced (absent):", ", ".join(r["trace"]["missing"]))
                break
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
