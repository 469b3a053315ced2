"""Record the reference values that checks.py compares szego outputs with.

    python3 perfbench/record_reference.py

For seeds 0-9 of every workload, runs each `szego` invocation once in this
process and writes its per-record `logdet_over_d` and `error` to
reference.json, keyed by the invocation's arguments.  Run it only at a commit
whose numbers are trusted: later commits must reproduce them within the
CLI's `logdet_rel` tolerance.
"""
import json
import os
import sys
import tempfile

import checks
import run

SEEDS = range(10)


def main():
    sys.path.insert(0, run.SRC)
    from sgszego import cli

    reference = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for name in run.WORKLOADS:
            for seed in SEEDS:
                for argv in run.workload_argvs(name, seed):
                    key = checks.reference_key(argv)
                    if argv[0] != "szego" or key in reference:
                        continue
                    if cli.main(argv + ["--out", tmp]) != 0:
                        raise SystemExit(f"failed: {key}")
                    mode = checks.options(argv).get("mode", "single")
                    rows = checks.read_rows(os.path.join(tmp, f"szego_{mode}.csv"))
                    reference[key] = [{"index": int(r["index"]),
                                       "logdet_over_d": float(r["logdet_over_d"]),
                                       "error": float(r["error"])} for r in rows]
                    print(key, file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
