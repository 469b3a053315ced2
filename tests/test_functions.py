import math
from itertools import product

import numpy as np
import pytest

from sgszego import laplacian as lap
from sgszego import topology as top
from sgszego.functions import (
    ConstantFunction,
    ExpressionFunction,
    HarmonicFunction,
    SimpleCellFunction,
    parse_function_spec,
)

from subspaces import FunctionSum, index_of, lattice_keys


def _key(word, corner):
    """Lattice key of F_word(q_corner); itertools.product yields the words in
    lexicographic order, so a word's position there is its rank."""
    rank = list(product((1, 2, 3), repeat=len(word))).index(word)
    return lattice_keys(rank, len(word), corner)


def _subdivide(h, child):
    """Corner values of child cell `child` under the harmonic extension rule."""
    i = child - 1
    j, k = [t for t in range(3) if t != i]
    out = [0.0, 0.0, 0.0]
    out[i] = h[i]
    out[j] = (2.0 * h[i] + 2.0 * h[j] + h[k]) / 5.0
    out[k] = (2.0 * h[i] + 2.0 * h[k] + h[j]) / 5.0
    return out


def _harmonic_at(boundary_values, word, corner):
    """Oracle: the harmonic function at F_word(q_corner), by walking the
    word's 2/5-2/5-1/5 subdivisions from the boundary values."""
    h = list(boundary_values)
    for s in word:
        h = _subdivide(h, s)
    return h[corner - 1]


def test_constant():
    f = ConstantFunction(2.5)
    topo = top.level_topology(2)
    assert np.all(f.sample(topo) == 2.5)
    assert f.cell_integral(math.log) == pytest.approx(math.log(2.5))


def test_harmonic_midpoint_rule():
    h = HarmonicFunction([1.0, 2.0, 4.0])
    # midpoint of the edge between corners 1 and 2 at level 1
    t1 = top.level_topology(1)
    vals = h.sample(t1)
    assert vals[index_of(t1, _key((1,), 2))] == pytest.approx((2 * 1 + 2 * 2 + 4) / 5)
    assert vals[index_of(t1, _key((2,), 1))] == pytest.approx((2 * 1 + 2 * 2 + 4) / 5)
    # corners are fixed points
    t3 = top.level_topology(3)
    assert h.sample(t3)[index_of(t3, _key((1, 1, 1), 1))] == 1.0


def test_harmonic_is_graph_harmonic():
    h = HarmonicFunction([0.0, 1.0, 0.0])
    resid = lap.apply_neg_laplacian(3, h.sample(top.level_topology(3)))
    assert np.max(np.abs(resid)) < 1e-12


def test_harmonic_sample_matches_pointwise():
    # the level-by-level extension gives the word walk's bits at every vertex
    topo = top.level_topology(5)
    words = list(product((1, 2, 3), repeat=5))
    for boundary in [(1.0, 1.5, 2.0), (0.3, -1.7, 2.9)]:
        vals = HarmonicFunction(boundary).sample(topo)
        walk = [_harmonic_at(boundary, words[r], c) for r, c in zip(topo.rank, topo.corner)]
        assert vals.tolist() == walk
        assert vals.min() >= min(boundary) and vals.max() <= max(boundary)


@pytest.mark.parametrize("level", range(10))
def test_harmonic_cell_corners_are_the_sample_bit_for_bit(level):
    # the midpoint rule one level at a time gives every cell's corners with
    # no table; the child maps A_i(0), whose float64 rows sum to
    # 1 + 5.6e-17, drifted up from the sample by about that much a level
    topo = top.level_topology(level)
    for boundary in [(1.2, 1.5, 1.9), (0.3, -1.7, 2.9)]:
        f = HarmonicFunction(boundary)
        harmonic, sampled = f.cell_corners(level)
        assert sampled is harmonic
        assert np.array_equal(harmonic, f.sample(topo)[topo.cell_vertices])


def test_harmonic_cell_corners_extend_the_kept_tables():
    # a level's table is built once and kept, read-only, and extending on
    # from the kept tables gives what a fresh function extends from V_0,
    # bit for bit
    f = HarmonicFunction([1.2, 1.5, 1.9])
    six = f.cell_corners(6)[0]
    assert f.cell_corners(6)[0] is six and not six.flags.writeable
    for level in (3, 8):
        assert np.array_equal(f.cell_corners(level)[0],
                              HarmonicFunction([1.2, 1.5, 1.9]).cell_corners(level)[0])
    assert f.cell_corners(6)[0] is six


@pytest.mark.parametrize("scale", range(4))
def test_simple_cell_corners_are_the_owner_sample_bit_for_bit(scale):
    # read off the ranks where two scale-cells meet, with no level table:
    # the values at every level-cell's corners are the sample's, owner rule
    # included, and the harmonic ones are the cell's coefficient
    f = SimpleCellFunction(np.random.default_rng(scale).uniform(1.0, 3.0, 3**scale))
    for level in range(scale, 8):
        topo = top.level_topology(level)
        harmonic, sampled = f.cell_corners(level)
        assert np.array_equal(sampled, f.sample(topo)[topo.cell_vertices]), level
        inside = f.coefficients[np.arange(3**level) // 3 ** (level - scale)]
        assert np.array_equal(harmonic, np.repeat(inside[:, None], 3, axis=1))


def test_simple_cell_function():
    f = SimpleCellFunction([1.0, 2.0, 3.0])
    assert f.scale == 1
    topo = top.level_topology(2)
    vals = f.sample(topo)
    # vertex shared by cells 1 and 2 takes the value of cell 1
    mid = index_of(topo, (4, 0))
    assert vals[mid] == 1.0
    assert vals[index_of(topo, _key((2, 2), 2))] == 2.0
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
    # sampling finer than the scale keeps at every vertex of the scale the
    # value of its owning cell there; lattice keys double with each level
    f = SimpleCellFunction(np.arange(1.0, 10.0))
    t2, t4 = top.level_topology(2), top.level_topology(4)
    coarse = f.sample(t2)
    assert coarse.tolist() == f.coefficients[t2.rank].tolist()
    assert f.sample(t4)[index_of(t4, t2.keys << 2)].tolist() == coarse.tolist()


def test_expression_function():
    f = ExpressionFunction("1 + 0.5*x + y")
    topo = top.level_topology(2)
    vals = f.sample(topo)
    assert vals == pytest.approx(1 + 0.5 * topo.coords[:, 0] + topo.coords[:, 1])
    # coordinates are exact under refinement, so a finer sample agrees at
    # the coarser vertices
    t4 = top.level_topology(4)
    assert f.sample(t4)[index_of(t4, topo.keys << 2)].tolist() == vals.tolist()


def test_function_sum():
    first, second = SimpleCellFunction([1, 2, 3]), HarmonicFunction([0.1, 0.2, 0.3])
    f = FunctionSum(first, second)
    topo = top.level_topology(2)
    assert f.sample(topo).tolist() == (first.sample(topo) + second.sample(topo)).tolist()


def test_parse_function_spec():
    assert isinstance(parse_function_spec("constant:1"), ConstantFunction)
    assert isinstance(parse_function_spec("simple:1,2,3"), SimpleCellFunction)
    assert isinstance(parse_function_spec("harmonic:1,1.5,2"), HarmonicFunction)
    assert isinstance(parse_function_spec("expr:1+x"), ExpressionFunction)
    with pytest.raises(ValueError):
        parse_function_spec("fourier:1")
