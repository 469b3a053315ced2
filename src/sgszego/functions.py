"""Test functions sampled on gasket vertices.

Every function type can be sampled on a whole level topology and evaluated at
a single (word, corner) vertex; the latter is what the Riemann-point
comparison uses.
"""
from __future__ import annotations

import math

import numpy as np

from .laplacian import extend_values
from .topology import level_topology, vertex_key


class ConstantFunction:
    def __init__(self, value):
        self.value = float(value)

    def label(self):
        return f"constant:{self.value:g}"

    def sample(self, topo):
        return np.full(topo.n_vertices, self.value)

    def at_vertex(self, word, corner):
        return self.value

    def cell_integral(self, func=None):
        return self.value if func is None else float(func(self.value))


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

    def _owner_values(self, topo, index):
        # a vertex's canonical (word, corner) lies in its least containing
        # cell, so the leading digits of that cell's rank address the owner
        return self.coefficients[topo.rank[index] // 3 ** (topo.m - self.scale)]

    def sample(self, topo):
        if topo.m < self.scale:
            raise ValueError("sampling level coarser than the cell scale")
        return self._owner_values(topo, slice(None))

    def at_vertex(self, word, corner):
        # F_w(q_c) = F_wc(q_c): a vertex of a level coarser than the scale is
        # a corner of one of its cells at the scale
        word = tuple(word) + (corner,) * (self.scale - len(word))
        topo = level_topology(len(word))
        return self._owner_values(topo, topo.index_of(vertex_key(word, corner)))

    def cell_integral(self, func=None):
        """Exact integral of func(f) for the self-similar measure: each cell
        carries mass 3^-N."""
        vals = self.coefficients if func is None else [func(c) for c in self.coefficients]
        return float(np.mean(vals))


def _subdivide(h, child):
    """Corner values of child cell `child` under the harmonic extension rule."""
    i = child - 1
    j, k = [t for t in range(3) if t != i]
    out = [0.0, 0.0, 0.0]
    out[i] = h[i]
    out[j] = (2.0 * h[i] + 2.0 * h[j] + h[k]) / 5.0
    out[k] = (2.0 * h[i] + 2.0 * h[k] + h[j]) / 5.0
    return out


class HarmonicFunction:
    """Harmonic extension of prescribed boundary values, evaluated exactly on
    vertices via the 2/5-2/5-1/5 subdivision rule."""

    def __init__(self, boundary_values):
        if len(boundary_values) != 3:
            raise ValueError("need exactly three boundary values")
        self.boundary_values = tuple(float(b) for b in boundary_values)

    def label(self):
        return "harmonic:" + ",".join(f"{b:g}" for b in self.boundary_values)

    def at_vertex(self, word, corner):
        h = list(self.boundary_values)
        for s in word:
            h = _subdivide(h, s)
        return h[corner - 1]

    def sample(self, topo):
        # the boundary values sit on V_0 in corner order; each level is one
        # harmonic extension
        values = np.array(self.boundary_values)
        for k in range(1, topo.m + 1):
            values = extend_values(values, k, 0.0)
        return values


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

    def sample(self, topo):
        vals = np.asarray(self._eval(topo.coords[:, 0], topo.coords[:, 1]))
        if vals.dtype.kind not in "biuf":
            raise ValueError(f"values of dtype {vals.dtype} are not real")
        return np.broadcast_to(vals.astype(float), (topo.n_vertices,)).copy()

    def at_vertex(self, word, corner):
        a, b = vertex_key(word, corner)
        top = 1 << (len(word) + 1)
        return float(self._eval(a / top, b * math.sqrt(3.0) / top))


class FunctionSum:
    """Pointwise sum of two functions, e.g. a simple function perturbed by a
    positive harmonic one."""

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def label(self):
        return f"sum({self.first.label()},{self.second.label()})"

    def sample(self, topo):
        return self.first.sample(topo) + self.second.sample(topo)

    def at_vertex(self, word, corner):
        return self.first.at_vertex(word, corner) + self.second.at_vertex(word, corner)


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
