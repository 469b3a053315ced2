"""Test functions sampled on gasket vertices.

A function is evaluated on the vertices of a level topology: `sample(topo)`
gives its values on every vertex, and an expression also gives
`midpoints(topo)`, its values on the vertices one level finer that are new,
the midpoints of the cells' edges.  The Riemann-point comparison reads its
points off one sample.

A function that is harmonic inside every cell of some level, its `scale`,
also gives `cell_corners(level)` for every level from that one on: the
values at each level-cell's corners of its harmonic restriction to the
cell's interior, and its sampled values there, which differ only where the
sample takes a vertex shared by two cells from one of them.  The Szegő
kernels read such a function at that level instead of on the sampling level
(`szego.recursive_kernels`).  A harmonic function samples its corner table.

`ConstantFunction` is the `SimpleCellFunction` of one cell, and only these
give exact cell integrals (`cell_integral`).
"""
from __future__ import annotations

import math

import numpy as np

from .laplacian import child_corners, midpoints, vertex_values
from .topology import SQRT3, level_topology


class SimpleCellFunction:
    """Piecewise constant on the 3^N cells at scale N.

    A vertex shared by two N-cells takes the value of the lexicographically
    smaller cell address (the owning cell).
    """

    def __init__(self, coefficients):
        coeffs = [float(c) for c in coefficients]
        n = len(coeffs)
        scale = round(math.log(n, 3)) if n > 1 else 0
        if 3 ** scale != n:
            raise ValueError("coefficient count must be a power of 3")
        self.scale = scale
        self.coefficients = np.array(coeffs)

    def label(self):
        return "simple:" + ",".join(f"{c:g}" for c in self.coefficients)

    def sample(self, topo):
        if topo.m < self.scale:
            raise ValueError("sampling level coarser than the cell scale")
        # a vertex's canonical (word, corner) lies in its least containing
        # cell, so the leading digits of that cell's rank address the owner
        return self.coefficients[topo.rank // 3 ** (topo.m - self.scale)]

    def cell_corners(self, level):
        """Inside a level-cell f is its scale-cell's coefficient; at a corner
        the cell shares, the sample may take the other cell's."""
        topo = level_topology(level)
        inside = self.coefficients[np.arange(3**level) // 3 ** (level - self.scale)]
        return np.repeat(inside[:, None], 3, axis=1), self.sample(topo)[topo.cell_vertices]

    def cell_integral(self, func=None):
        """Exact integral of func(f) for the self-similar measure: each cell
        carries mass 3^-N."""
        vals = self.coefficients if func is None else [func(c) for c in self.coefficients]
        return float(np.mean(vals))


class ConstantFunction(SimpleCellFunction):
    """The simple function of one cell, scale 0: constant:c is simple:c."""

    def __init__(self, value):
        super().__init__([value])

    def label(self):
        return f"constant:{self.coefficients[0]:g}"


class HarmonicFunction:
    """Harmonic extension of prescribed boundary values, evaluated exactly on
    vertices via the 2/5-2/5-1/5 subdivision rule."""

    scale = 0

    def __init__(self, boundary_values):
        if len(boundary_values) != 3:
            raise ValueError("need exactly three boundary values")
        self.boundary_values = tuple(float(b) for b in boundary_values)

    def label(self):
        return "harmonic:" + ",".join(f"{b:g}" for b in self.boundary_values)

    def sample(self, topo):
        return vertex_values(self.cell_corners(topo.m)[0], topo)

    def cell_corners(self, level):
        """The values at every level-cell's corners, extended from the
        boundary values by `midpoints` at gamma = 0."""
        corners = np.array([self.boundary_values])
        for _ in range(level):
            corners = child_corners(corners, midpoints(corners, 0.0))
        return corners, corners


class ExpressionFunction:
    """Arbitrary expression in the Euclidean coordinates x and y."""

    _NAMESPACE = {
        "np": np,
        "sin": np.sin,
        "cos": np.cos,
        "exp": np.exp,
        "log": np.log,
        "sqrt": np.sqrt,
        "abs": np.abs,
        "pi": np.pi,
    }

    def __init__(self, expression):
        self.expression = expression
        self._code = compile(expression, "<function-expr>", "eval")
        # an expression that compiles can still fail on arrays (an unknown
        # name, a call of x), give non-real values, or not be pointwise (its
        # shape depends on the length of x); refuse it up front
        try:
            corners = level_topology(0)
            self.sample(corners)
            point = np.asarray(self._eval(*map(np.asarray, corners.coords[0])))
            if point.shape != () or point.dtype.kind not in "biuf":
                raise ValueError(f"a single point gives {point!r}, not a real number")
        except Exception as exc:
            raise ValueError(f"expression {expression!r} cannot be evaluated: {exc}") from exc

    def label(self):
        return f"expr:{self.expression}"

    def _eval(self, x, y):
        env = dict(self._NAMESPACE)
        env["x"] = x
        env["y"] = y
        return eval(self._code, {"__builtins__": {}}, env)

    def _values(self, x, y):
        vals = np.asarray(self._eval(x, y))
        if vals.dtype.kind not in "biuf":
            raise ValueError(f"values of dtype {vals.dtype} are not real")
        return np.broadcast_to(vals.astype(float), x.shape).copy()

    def sample(self, topo):
        return self._values(topo.coords[:, 0], topo.coords[:, 1])

    def midpoints(self, topo):
        """Values at the midpoints of the edges of every topo-level cell,
        (cells, 3), column r opposite corner r, where the expression is
        evaluated.  A midpoint's lattice key one level finer is the sum of
        its edge's keys, so its coordinates are those of
        `level_topology(topo.m + 1)` bit for bit."""
        keys = topo.keys[topo.cell_vertices]
        keys = (keys[:, [1, 0, 0]] + keys[:, [2, 2, 1]]).reshape(-1, 2)
        top = 1 << (topo.m + 2)
        return self._values(keys[:, 0] / top, keys[:, 1] * SQRT3 / top).reshape(-1, 3)


def parse_function_spec(spec):
    """Parse CLI function specs like constant:1, simple:1,2,3, harmonic:1,1.5,2
    or expr:1+0.5*x."""
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        return ConstantFunction(float(arg))
    if kind == "simple":
        return SimpleCellFunction([float(t) for t in arg.split(",")])
    if kind == "harmonic":
        return HarmonicFunction([float(t) for t in arg.split(",")])
    if kind == "expr":
        return ExpressionFunction(arg)
    raise ValueError(f"unknown function spec {spec!r}")
