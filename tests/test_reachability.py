"""Every function of the package is reached by a command line run: a def that
no command reaches is dead code, or an oracle that belongs in the tests.

A few small argvs, one per command and one per exit-2 and exit-3 path, run in
process under sys.setprofile.  Each def is keyed by its file and its first
line, counting decorators, which is the co_firstlineno of its code object, so
methods of the same name in different classes are told apart."""
import ast
import glob
import json
import os
import sys

from sgszego import cli, decimation, laplacian, schur, szego, topology

PACKAGE = os.path.dirname(os.path.abspath(cli.__file__))

# (exit code, argv)
RUNS = [
    (2, []),  # no command: the help text
    (0, ["topology", "--m", "2"]),  # levels 0, 1, 2, each built from the one below
    (0, ["spectrum", "--m", "3"]),
    (0, ["basis", "--series", "six", "--j", "3", "--N", "1", "--m-q", "4"]),
    (0, ["basis", "--series", "five", "--j", "3", "--N", "1", "--m-q", "4"]),
    (0, ["basis", "--series", "two", "--j", "1", "--N", "0", "--m-q", "3"]),
    (0, ["szego", "--mode", "single", "--j", "2..3", "--N", "1", "--f", "harmonic:1,1.5,2"]),
    (0, ["szego", "--mode", "cutoff", "--m", "1..2", "--N", "1", "--f", "simple:1,2,3"]),
    (0, ["szego", "--mode", "single", "--j", "2", "--f", "expr:x+1"]),
    (0, ["equidist", "--mode", "single", "--j", "2", "--f", "expr:x+1", "--F", "power:2"]),
    # the Riemann points are the one sample of a harmonic f
    (0, ["equidist", "--mode", "single", "--j", "2", "--f", "harmonic:1,1.5,2", "--F", "log"]),
    (0, ["equidist", "--mode", "cutoff", "--m", "2", "--f", "constant:2",
         "--F", "expr:math.log(x)"]),
    (0, ["resistance", "--m", "3", "--triples", "10"]),
    (2, ["szego", "--mode", "single", "--j", "9", "--f", "constant:-1"]),
    (2, ["spectrum", "--m", "2", "--tol", "gram=nan"]),
    # a tolerance no basis meets, an f that changes sign, an f whose
    # compressed blocks overflow, and a functional outside its domain
    (3, ["basis", "--series", "six", "--j", "3", "--N", "1", "--m-q", "4", "--tol", "gram=0"]),
    (3, ["szego", "--mode", "single", "--j", "3", "--N", "1", "--f", "expr:x-0.4"]),
    (3, ["szego", "--mode", "single", "--j", "2", "--f", "expr:1e308*(x+2)"]),
    (3, ["equidist", "--mode", "single", "--j", "2", "--f", "constant:2",
         "--F", "expr:math.log(x-3)"]),
]


def _defs():
    """{(file, first line): qualified name} of every def in the package."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(path, first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            visit(ast.parse(fh.read()), path, "")
    return defs


def _reached(argvs, out):
    """The exit codes of the runs, and (file, first line) of every package
    function they call."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # a cached result would hide its function from a run
    for module in (decimation, laplacian, schur, szego, topology):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv + ["--out", str(out)] if argv else argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    return codes, seen


def test_every_def_is_reached(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "single", "j": "2", "f": "constant:2"}))
    codes, seen = _reached([argv for _, argv in RUNS] + [["--config", str(config), "szego"]],
                           tmp_path)
    assert codes == [code for code, _ in RUNS] + [0]
    unreached = {name for key, name in _defs().items() if key not in seen}
    assert not unreached, sorted(unreached)
