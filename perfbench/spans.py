"""In-memory spans around the public functions of each sgszego module.

A traced function is replaced by a wrapper in every sgszego module namespace
that holds it, because several modules import functions by name (`szego`
imports `localize_basis`, `decimation` and `eigenbasis` import
`cached_dense_spectrum`, ...); patching only the defining module would let
those calls escape the trace.
"""
import functools
import sys
import time

# (module, attribute, span name); classes are patched method by method.
FUNCTIONS = [
    ("topology", "level_topology", "topology.level_topology"),
    ("laplacian", "cached_dense_spectrum", "laplacian.dense_spectrum"),
    ("decimation", "enumerate_spectrum", "decimation.enumerate_spectrum"),
    ("decimation", "eigenfunctions_at_level", "decimation.eigenfunctions_at_level"),
    ("eigenbasis", "localize_basis", "eigenbasis.localize_basis"),
    ("eigenbasis", "orthonormalize", "eigenbasis.orthonormalize"),
    ("szego", "assemble_compressed", "szego.assemble_compressed"),
    ("szego", "cutoff_operator", "szego.cutoff_operator"),
    ("szego", "log_det", "szego.log_det"),
    ("szego", "operator_eigenvalues", "szego.operator_eigenvalues"),
    ("szego", "reference_integral", "szego.reference_integral"),
    ("cli", "_export_with_header", "cli.export"),
    ("cli", "_write_summary", "cli.export"),
]
METHODS = [
    ("laplacian", "ResistanceComputer", ("__init__", "resistance"), "laplacian.resistance"),
]
# every module-level `export_*` function writes a CLI output file
EXPORT_PREFIX, EXPORT_SPAN = "export_", "cli.export"
# every class of `functions` with its own `sample` method
SAMPLE_MODULE, SAMPLE_SPAN = "functions", "functions.sample"
# lru-cached functions whose cache misses count the builds
CACHED = {"topology.level_topology": ("topology", "level_topology"),
          "laplacian.dense_spectrum": ("laplacian", "cached_dense_spectrum")}


class Tracer:
    """Records (name, start, end, parent) spans; parent is an index into
    `spans`, or -1 at the top."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.max_side = 0
        self.localized_columns = 0
        self.returned_columns = 0
        self._stack = []
        self._originals = {}
        self._wrapped = set()

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result)
            return result
        return traced

    def install(self):
        """Patch every traced name; targets that no longer exist are listed
        in `missing` instead of failing the run."""
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "sgszego" or name.startswith("sgszego.")]
        mods = {mod.__name__[len("sgszego."):]: mod for mod in namespaces
                if mod.__name__ != "sgszego"}
        after = {"laplacian.dense_spectrum": self._after_spectrum,
                 "eigenbasis.localize_basis": self._after_localize}
        targets = list(FUNCTIONS)
        for modname, mod in mods.items():
            targets += [(modname, attr, EXPORT_SPAN) for attr in vars(mod)
                        if attr.startswith(EXPORT_PREFIX) and callable(getattr(mod, attr))]
        for modname, attr, name in targets:
            original = getattr(mods.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            if getattr(original, "__wrapped__", None) in self._wrapped:
                continue  # re-exported under another module, already patched
            self._originals[(modname, attr)] = original
            self._wrapped.add(original)
            traced = self.span(name, original, after.get(name))
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for modname, clsname, attrs, name in METHODS:
            cls = getattr(mods.get(modname), clsname, None)
            for attr in attrs:
                if cls is None or attr not in vars(cls):
                    self.missing.append(f"{modname}.{clsname}.{attr}")
                    continue
                setattr(cls, attr, self.span(name, vars(cls)[attr]))
        for value in list(vars(mods[SAMPLE_MODULE]).values()):
            if isinstance(value, type) and "sample" in vars(value):
                value.sample = self.span(SAMPLE_SPAN, vars(value)["sample"])

    def _after_spectrum(self, result):
        self.max_side = max(self.max_side, len(result[0]))

    def _after_localize(self, basis):
        self.localized_columns += basis.localized_count
        self.returned_columns += basis.dimension

    def builds(self):
        """Cache misses of each lru-cached traced function, by span name."""
        out = {}
        for name, key in CACHED.items():
            original = self._originals.get(key)
            out[name] = original.cache_info().misses if original is not None else 0
        return out

    def summary(self):
        """Per span name: calls, total and self seconds.  Self time is the
        span's duration minus the durations of its direct children, which
        are disjoint because calls nest on one thread."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def reset(self):
        self.spans = []
        self.max_side = self.localized_columns = self.returned_columns = 0
