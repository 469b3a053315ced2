import math
from itertools import product

import numpy as np
import pytest

from sgszego import cli
from sgszego import laplacian as lap
from sgszego import topology as top

from subspaces import cell_indicator, index_of, interior_cell_rows, lattice_keys, unique_key_tables

# Reference for the lattice-key rule and the canonical vertex order: the
# word-by-word key loop and the dict of representatives that the array build
# replaced.  Words come from itertools.product, which yields them in
# lexicographic order, so a word's position there is its rank.
CORNER_INT = {1: (0, 0), 2: (2, 0), 3: (1, 1)}


def _loop_vertex_key(word, corner):
    m = len(word)
    a, b = CORNER_INT[corner]
    for t, s in enumerate(word):
        sa, sb = CORNER_INT[s]
        a += sa << (m - 1 - t)
        b += sb << (m - 1 - t)
    return (a, b)


def _representative_tables(m):
    """(keys, words, corners, cell_vertices) in canonical order, and the
    representatives of each vertex, from a dict keyed by lattice key."""
    reps = {}
    for word in product((1, 2, 3), repeat=m):
        for corner in (1, 2, 3):
            reps.setdefault(_loop_vertex_key(word, corner), []).append((word, corner))
    order = sorted(reps, key=lambda k: min(reps[k]))
    index = {key: i for i, key in enumerate(order)}
    cell_vertices = [[index[_loop_vertex_key(w, c)] for c in (1, 2, 3)]
                     for w in product((1, 2, 3), repeat=m)]
    return order, [min(reps[k]) for k in order], cell_vertices, [reps[k] for k in order]


def _cells_of_vertex(topo, index, scale):
    """The scale-cells whose closure contains the vertex, read off cell_vertices."""
    rows = np.nonzero((topo.cell_vertices == index).any(axis=1))[0]
    words = list(product((1, 2, 3), repeat=topo.m))
    return sorted({words[r][:scale] for r in rows})


@pytest.mark.parametrize("m", range(8))
def test_vertex_counts(m):
    topo = top.level_topology(m)
    assert topo.n_vertices == (3 ** (m + 1) + 3) // 2
    assert len(topo.cell_vertices) == 3 ** m
    assert int(topo.boundary_mask.sum()) == 3


def test_level_zero_and_one():
    t0 = top.level_topology(0)
    assert t0.boundary_mask.all()
    t1 = top.level_topology(1)
    assert t1.n_vertices == 6
    assert int(t1.boundary_mask.sum()) == 3
    t3 = top.level_topology(3)
    assert t3.n_vertices == 42


@pytest.mark.parametrize("m", range(7))
def test_lattice_keys_match_loop(m):
    for rank, word in enumerate(product((1, 2, 3), repeat=m)):
        for corner in (1, 2, 3):
            key = lattice_keys(rank, m, corner)
            assert tuple(key.tolist()) == _loop_vertex_key(word, corner)


@pytest.mark.parametrize("m", range(7))
def test_tables_match_representative_dict(m):
    topo = top.level_topology(m)
    keys, canonical, cell_vertices, _ = _representative_tables(m)
    assert topo.keys.tolist() == [list(k) for k in keys]
    words = list(product((1, 2, 3), repeat=m))
    assert [(words[r], c) for r, c in zip(topo.rank, topo.corner)] == canonical
    assert topo.cell_vertices.tolist() == cell_vertices
    assert index_of(topo, topo.keys).tolist() == list(range(topo.n_vertices))
    with pytest.raises(KeyError):
        index_of(topo, [1 << (m + 1), 1])


@pytest.mark.parametrize("m", range(11))
def test_recursion_matches_the_unique_key_oracle(m):
    # every table built from the level below equals the one `np.unique` over
    # the lattice keys of all cell corners gives, dtype included, and is
    # C-contiguous
    topo = top.level_topology(m)
    for name, expected in unique_key_tables(m).items():
        table = getattr(topo, name)
        assert table.dtype == expected.dtype, name
        assert table.flags.c_contiguous, name
        assert np.array_equal(table, expected), name


@pytest.mark.parametrize("m", range(8))
def test_rotation_is_a_cell_permutation_of_order_three(m):
    topo = top.level_topology(m)
    rot = top.rotation(m)
    assert rot.shape == (3, topo.n_vertices) and not rot.flags.writeable
    assert np.array_equal(rot[0], np.arange(topo.n_vertices))
    digits = np.array(list(product(range(3), repeat=m)), dtype=np.int64).reshape(3**m, m)
    for s in range(3):
        assert np.array_equal(np.sort(rot[s]), np.arange(topo.n_vertices))
        assert np.array_equal(rot[1][rot[s]], rot[(s + 1) % 3])
        # the corners of each cell go to the corners of a cell, corner c to c + s
        ranks = (digits + s) % 3 @ (3 ** np.arange(m - 1, -1, -1)).astype(np.int64)
        assert np.array_equal(rot[s][topo.cell_vertices],
                              topo.cell_vertices[ranks][:, (np.arange(3) + s) % 3])
    # it is the rotation of the plane by 120 degrees about the centre that
    # takes q_1 to q_2
    centre = np.array([0.5, math.sqrt(3) / 6])
    turn = np.array([[-0.5, -math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]])
    assert np.allclose(topo.coords[rot[1]], (topo.coords - centre) @ turn.T + centre,
                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", range(1, 7))
def test_nesting(m):
    # V_{m-1} embeds in V_m by doubling the integer coordinates
    child = top.level_topology(m)
    parent = top.level_topology(m - 1)
    pmap = index_of(child, 2 * parent.keys)
    assert len(set(pmap.tolist())) == parent.n_vertices
    # the same pairing as the corner maps of the extension rule
    parent_corner, child_corner, _ = lap.extension_maps(m)
    assert np.array_equal(pmap[parent_corner], child_corner)


@pytest.mark.parametrize("m", range(5))
def test_cell_embedding_matches_vertex_keys(m):
    big = top.level_topology(m)
    for scale in range(m + 1):
        emb = top.cell_embedding(m, scale)
        small = top.level_topology(m - scale)
        assert emb.shape == (3**scale, small.n_vertices)
        small_words = list(product((1, 2, 3), repeat=m - scale))
        for r, w in enumerate(product((1, 2, 3), repeat=scale)):
            for i, (rank, corner) in enumerate(zip(small.rank, small.corner)):
                key = _loop_vertex_key(w + small_words[rank], corner)
                assert emb[r, i] == index_of(big, key)
    assert np.array_equal(top.cell_embedding(m, m), big.cell_vertices)
    assert np.array_equal(top.cell_embedding(m, 0), [np.arange(big.n_vertices)])


def _key_search_embedding(m, scale):
    """Reference for `cell_embedding`: F_w shifts the lattice key of v by
    2^(m - scale) times the key of the corner F_w(q_1) at level `scale`, and
    the shifted keys are looked up among the level-m vertices."""
    shift = m - scale
    origins = lattice_keys(np.arange(3**scale)[:, None], scale, 1) << shift
    return index_of(top.level_topology(m), origins + top.level_topology(shift).keys)


@pytest.mark.parametrize("m", range(9))
def test_cell_tables_match_key_search(m):
    # the tables read off ranks are those of the lattice-key search
    interior = top.level_topology(m).interior_indices
    for scale in range(m + 1):
        emb = _key_search_embedding(m, scale)
        assert np.array_equal(top.cell_embedding(m, scale), emb)
        small_interior = top.level_topology(m - scale).interior_indices
        assert np.array_equal(interior_cell_rows(m, scale),
                              np.searchsorted(interior, emb[:, small_interior]))
    if m:
        emb = _key_search_embedding(m, m - 1)
        expected = (top.level_topology(m - 1).cell_vertices, emb[:, [0, 3, 5]], emb[:, [4, 2, 1]])
        for mine, ref in zip(lap.extension_maps(m), expected):
            assert np.array_equal(mine, ref)


@pytest.mark.parametrize("m", range(1, 7))
def test_cell_membership_counts(m):
    topo = top.level_topology(m)
    *_, reps = _representative_tables(m)
    for i in range(topo.n_vertices):
        n = len({w for w, _ in reps[i]})
        assert n == (1 if topo.boundary_mask[i] else 2)
        assert n == np.count_nonzero(topo.cell_vertices == i)


def test_cell_of_vertex():
    topo = top.level_topology(3)
    corner = index_of(topo, (0, 0))
    assert _cells_of_vertex(topo, corner, 1) == [(1,)]
    # midpoint shared by F_1 and F_2 at level 1, key doubled to level 3
    mid = index_of(topo, (8, 0))
    assert _cells_of_vertex(topo, mid, 1) == [(1,), (2,)]
    rng = np.random.default_rng(7)
    interior = topo.interior_indices
    for i in rng.choice(interior, size=10, replace=False):
        assert len(_cells_of_vertex(topo, int(i), 2)) in (1, 2)
        assert len(_cells_of_vertex(topo, int(i), 3)) == 2


def test_cell_of_vertex_scale_error():
    # cells finer than the vertex level are refused
    topo = top.level_topology(2)
    with pytest.raises(ValueError):
        top.cell_embedding(2, 3)
    with pytest.raises(ValueError):
        cell_indicator(topo, 0, 3)


@pytest.mark.parametrize("rank", [5, -1, 3])
def test_cell_indicator_refuses_out_of_range_rank(rank):
    # scale 1 has the ranks 0, 1, 2 only; an out-of-range rank once gave an
    # all-zero indicator
    with pytest.raises(ValueError):
        cell_indicator(top.level_topology(3), rank, 1)


def test_quadrature_weights():
    q1 = top.quadrature(1)
    t1 = top.level_topology(1)
    for i, is_boundary in enumerate(t1.boundary_mask):
        expected = 1.0 / 9.0 if is_boundary else 2.0 / 9.0
        assert q1[i] == pytest.approx(expected, abs=1e-16)
    q4 = top.quadrature(4)
    assert abs(q4.sum() - 1.0) < 1e-14
    assert abs(q4 @ np.ones(len(q4)) - 1.0) < 1e-14


@pytest.mark.parametrize("m_q,scale", [(3, 1), (3, 2), (4, 2), (5, 3)])
def test_quadrature_exact_on_cell_indicators(m_q, scale):
    topo = top.level_topology(m_q)
    q = top.quadrature(m_q)
    *_, reps = _representative_tables(m_q)
    for rank, cell in enumerate(product((1, 2, 3), repeat=scale)):
        ind = cell_indicator(topo, rank, scale)
        assert q @ ind == pytest.approx(3.0 ** (-scale), abs=1e-15)
        # the fraction of each vertex's containing cells inside `cell`
        words = [{w for w, _ in r} for r in reps]
        assert ind.tolist() == [sum(w[:scale] == cell for w in ws) / len(ws) for ws in words]


def test_quadrature_level_error():
    with pytest.raises(ValueError):
        top.quadrature(0)


def test_coordinates():
    t1 = top.level_topology(1)
    pts = sorted((round(x, 10), round(y, 10)) for x, y in t1.coords.tolist())
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
    assert cli.main(["topology", "--m", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "vertices.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "id,word,corner,x,y,is_boundary,weight"
    assert len(lines) == 2 + topo.n_vertices
    assert len((tmp_path / "cells.csv").read_text().strip().splitlines()) == 11


@pytest.mark.parametrize("m", [0, 1, 3])
def test_word_strs(m):
    words = ["".join(map(str, w)) or "-" for w in product((1, 2, 3), repeat=m)]
    assert top.word_strs(np.arange(3**m), m) == words
    assert top.word_strs(np.arange(3**m)[::-1], m) == words[::-1]
