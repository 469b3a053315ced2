import math

import numpy as np
import pytest

from sgszego import laplacian as lap
from sgszego import topology as top
from sgszego.functions import (
    ConstantFunction,
    ExpressionFunction,
    FunctionSum,
    HarmonicFunction,
    SimpleCellFunction,
    parse_function_spec,
)


def test_constant():
    f = ConstantFunction(2.5)
    topo = top.level_topology(2)
    assert np.all(f.sample(topo) == 2.5)
    assert f.at_vertex((1, 2), 3) == 2.5
    assert f.cell_integral(math.log) == pytest.approx(math.log(2.5))


def test_harmonic_midpoint_rule():
    h = HarmonicFunction([1.0, 2.0, 4.0])
    # midpoint of the edge between corners 1 and 2 at level 1
    assert h.at_vertex((1,), 2) == pytest.approx((2 * 1 + 2 * 2 + 4) / 5)
    assert h.at_vertex((2,), 1) == pytest.approx((2 * 1 + 2 * 2 + 4) / 5)
    # corners are fixed points
    assert h.at_vertex((1, 1, 1), 1) == 1.0


def test_harmonic_is_graph_harmonic():
    h = HarmonicFunction([0.0, 1.0, 0.0])
    resid = lap.apply_neg_laplacian(3, h.sample(top.level_topology(3)))
    assert np.max(np.abs(resid)) < 1e-12


def test_harmonic_sample_matches_pointwise():
    h = HarmonicFunction([1.0, 1.5, 2.0])
    topo = top.level_topology(4)
    vals = h.sample(topo)
    words = top.enumerate_cells(4)
    for i in range(0, topo.n_vertices, 17):
        word, corner = words[topo.rank[i]], int(topo.corner[i])
        assert vals[i] == pytest.approx(h.at_vertex(word, corner), abs=1e-14)
    assert vals.min() >= 1.0 and vals.max() <= 2.0


def test_simple_cell_function():
    f = SimpleCellFunction([1.0, 2.0, 3.0])
    assert f.scale == 1
    topo = top.level_topology(2)
    vals = f.sample(topo)
    # vertex shared by cells 1 and 2 takes the value of cell 1
    mid = topo.index_of((4, 0))
    assert vals[mid] == 1.0
    assert f.at_vertex((2, 2), 2) == 2.0
    assert f.cell_integral() == pytest.approx(2.0)
    assert f.cell_integral(math.log) == pytest.approx((math.log(2) + math.log(3)) / 3)


def test_simple_cell_function_validation():
    with pytest.raises(ValueError):
        SimpleCellFunction([1.0, 2.0])
    f = SimpleCellFunction([1.0])
    assert f.scale == 0
    with pytest.raises(ValueError):
        SimpleCellFunction([1.0] * 9).sample(top.level_topology(1))


def test_simple_cell_function_at_coarser_vertex():
    # a vertex of a level coarser than the scale takes the value that
    # sampling at the scale gives it
    f = SimpleCellFunction(np.arange(1.0, 10.0))
    topo = top.level_topology(2)
    vals = f.sample(topo)
    for word in [(), (1,), (2,), (3,)]:
        for corner in (1, 2, 3):
            key = top.vertex_key(word + (corner,) * (2 - len(word)), corner)
            assert f.at_vertex(word, corner) == vals[topo.index_of(key)]


def test_expression_function():
    f = ExpressionFunction("1 + 0.5*x + y")
    topo = top.level_topology(2)
    vals = f.sample(topo)
    assert vals == pytest.approx(1 + 0.5 * topo.coords[:, 0] + topo.coords[:, 1])
    word, corner = top.enumerate_cells(2)[topo.rank[5]], int(topo.corner[5])
    assert f.at_vertex(word, corner) == pytest.approx(vals[5])


def test_function_sum():
    f = FunctionSum(SimpleCellFunction([1, 2, 3]), HarmonicFunction([0.1, 0.2, 0.3]))
    topo = top.level_topology(2)
    word, corner = top.enumerate_cells(2)[topo.rank[4]], int(topo.corner[4])
    assert f.sample(topo)[4] == pytest.approx(f.at_vertex(word, corner))


def test_parse_function_spec():
    assert isinstance(parse_function_spec("constant:1"), ConstantFunction)
    assert isinstance(parse_function_spec("simple:1,2,3"), SimpleCellFunction)
    assert isinstance(parse_function_spec("harmonic:1,1.5,2"), HarmonicFunction)
    assert isinstance(parse_function_spec("expr:1+x"), ExpressionFunction)
    with pytest.raises(ValueError):
        parse_function_spec("fourier:1")
