import math

import numpy as np
import pytest

from sgszego import topology as top


def test_cell_counts():
    assert top.enumerate_cells(0) == [()]
    m2 = top.enumerate_cells(2)
    assert len(m2) == 9
    assert m2[0] == (1, 1) and m2[-1] == (3, 3)
    assert m2 == sorted(m2)
    assert len(top.enumerate_cells(5)) == 243


@pytest.mark.parametrize("m", range(8))
def test_vertex_counts(m):
    topo = top.level_topology(m)
    assert topo.n_vertices == (3 ** (m + 1) + 3) // 2
    assert len(topo.cells) == 3 ** m
    assert int(topo.boundary_mask.sum()) == 3


def test_level_zero_and_one():
    t0 = top.level_topology(0)
    assert all(v.is_boundary for v in t0.vertices)
    t1 = top.level_topology(1)
    assert t1.n_vertices == 6
    assert int(t1.boundary_mask.sum()) == 3
    t3 = top.level_topology(3)
    assert t3.n_vertices == 42


@pytest.mark.parametrize("m", range(1, 7))
def test_nesting(m):
    # V_{m-1} embeds in V_m by doubling the integer coordinates
    child = top.level_topology(m)
    pmap = top.parent_index_map(m)
    parent = top.level_topology(m - 1)
    assert len(set(pmap)) == parent.n_vertices
    for v, ci in zip(parent.vertices, pmap):
        assert child.vertices[ci].key == (2 * v.key[0], 2 * v.key[1])


@pytest.mark.parametrize("m", range(5))
def test_cell_embedding_matches_vertex_keys(m):
    big = top.level_topology(m)
    for scale in range(m + 1):
        emb = top.cell_embedding(m, scale)
        small = top.level_topology(m - scale)
        assert emb.shape == (3**scale, small.n_vertices)
        for r, w in enumerate(top.enumerate_cells(scale)):
            for v in small.vertices:
                assert emb[r, v.index] == big.index_by_key[top.vertex_key(w + v.word, v.corner)]
    assert np.array_equal(top.cell_embedding(m, m), big.cell_vertices)
    assert np.array_equal(top.cell_embedding(m, 0), [np.arange(big.n_vertices)])


@pytest.mark.parametrize("m", range(1, 7))
def test_cell_membership_counts(m):
    topo = top.level_topology(m)
    for i in range(topo.n_vertices):
        n = topo.containing_cell_count(i)
        assert n == (1 if topo.boundary_mask[i] else 2)


def test_cell_of_vertex():
    topo = top.level_topology(3)
    corner = topo.index_by_key[(0, 0)]
    assert topo.cells_of_vertex(corner, 1) == [(1,)]
    # midpoint shared by F_1 and F_2 at level 1, key doubled to level 3
    mid = topo.index_by_key[(8, 0)]
    assert topo.cells_of_vertex(mid, 1) == [(1,), (2,)]
    rng = np.random.default_rng(7)
    interior = topo.interior_indices
    for i in rng.choice(interior, size=10, replace=False):
        assert len(topo.cells_of_vertex(int(i), 2)) in (1, 2)
        assert len(topo.cells_of_vertex(int(i), 3)) == 2


def test_cell_of_vertex_scale_error():
    topo = top.level_topology(2)
    with pytest.raises(ValueError):
        topo.cells_of_vertex(0, 3)


def test_quadrature_weights():
    q1 = top.quadrature(1)
    t1 = top.level_topology(1)
    for v in t1.vertices:
        expected = 1.0 / 9.0 if v.is_boundary else 2.0 / 9.0
        assert q1.weights[v.index] == pytest.approx(expected, abs=1e-16)
    q4 = top.quadrature(4)
    assert abs(q4.weights.sum() - 1.0) < 1e-14
    assert abs(q4.integrate(np.ones(len(q4.weights))) - 1.0) < 1e-14


@pytest.mark.parametrize("m_q,scale", [(3, 1), (3, 2), (4, 2), (5, 3)])
def test_quadrature_exact_on_cell_indicators(m_q, scale):
    topo = top.level_topology(m_q)
    q = top.quadrature(m_q)
    for cell in top.enumerate_cells(scale):
        ind = top.cell_indicator(topo, cell)
        assert q.integrate(ind) == pytest.approx(3.0 ** (-scale), abs=1e-15)


def test_quadrature_level_error():
    with pytest.raises(ValueError):
        top.quadrature(0)


def test_coordinates():
    t1 = top.level_topology(1)
    pts = sorted((round(v.x, 10), round(v.y, 10)) for v in t1.vertices)
    expected = sorted(
        [
            (0.0, 0.0),
            (1.0, 0.0),
            (0.5, round(math.sqrt(3) / 2, 10)),
            (0.5, 0.0),
            (0.25, round(math.sqrt(3) / 4, 10)),
            (0.75, round(math.sqrt(3) / 4, 10)),
        ]
    )
    assert pts == expected


def test_vertex_table_export(tmp_path):
    topo = top.level_topology(2)
    path = tmp_path / "vertices.csv"
    top.export_vertex_table(topo, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,word,corner,x,y,is_boundary,weight"
    assert len(lines) == 1 + topo.n_vertices
    top.export_cell_table(topo, tmp_path / "cells.csv")
    assert len((tmp_path / "cells.csv").read_text().strip().splitlines()) == 10
