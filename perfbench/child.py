"""One cold sgszego CLI invocation, run in a fresh interpreter.

    python3 child.py SPEC

SPEC is a JSON object: `src` (directory holding the sgszego package),
`launched` (time.monotonic() of the parent just before it started this
process), `result` (file to write the result to), `argv` (CLI arguments, or
null to only import and report the environment), `trace` (bool) and
`warm_argv` (arguments of the second, warm run when tracing).
"""
import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
from sgszego import cli  # noqa: E402  (the import is what setup_s measures)

result = {"setup_s": time.monotonic() - spec["launched"]}


def environment():
    import ctypes
    import glob
    import os
    import platform

    import numpy as np

    blas = {"version": None, "threads": None}
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    blas = {"version": config().decode(), "threads": threads()}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas["version"],
        "blas_threads": blas["threads"],
        "cpu_count": os.cpu_count(),
    }


def invoke(argv):
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # reported as a failed invocation, not a crash
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - t0


if spec["argv"] is None:
    result["environment"] = environment()
elif not spec["trace"]:
    result["exit_code"], result["run_s"] = invoke(spec["argv"])
else:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    result["exit_code"], result["run_s"] = invoke(spec["argv"])
    result["trace"] = {
        "spans": tracer.summary(),
        "builds": tracer.builds(),
        "max_side": tracer.max_side,
        "localized_columns": tracer.localized_columns,
        "returned_columns": tracer.returned_columns,
        "missing": tracer.missing,
    }
    tracer.reset()
    result["warm_exit_code"], result["warm_run_s"] = invoke(spec["warm_argv"])

with open(spec["result"], "w") as fh:
    json.dump(result, fh)
