"""Unit tests for vectorized adjacency expansion."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import rmat, with_random_weights
from repro.graph.gather import (
    SPARSE_DIVISOR,
    distinct_vertices,
    expand_indices,
    gather_edge_positions,
    gather_edges,
)


def test_expand_indices_simple():
    out = expand_indices(np.array([0, 10]), np.array([3, 2]))
    assert out.tolist() == [0, 1, 2, 10, 11]


def test_expand_indices_with_empty_ranges():
    out = expand_indices(np.array([5, 0, 9]), np.array([2, 0, 1]))
    assert out.tolist() == [5, 6, 9]


def test_expand_indices_all_empty():
    out = expand_indices(np.array([1, 2]), np.array([0, 0]))
    assert out.size == 0


def test_gather_edges_tiny(tiny_graph):
    src, dst, weights = gather_edges(tiny_graph, np.array([0, 3]))
    assert src.tolist() == [0, 0, 3]
    assert dst.tolist() == [1, 2, 4]
    assert weights is None


def test_gather_edges_empty(tiny_graph):
    src, dst, weights = gather_edges(tiny_graph, np.array([], dtype=np.int64))
    assert src.size == 0 and dst.size == 0 and weights is None


def test_gather_edges_weighted():
    graph = with_random_weights(rmat(8, 6, seed=1), seed=2)
    frontier = np.array([0, 5, 17], dtype=np.int64)
    src, dst, weights = gather_edges(graph, frontier)
    assert weights is not None
    assert weights.shape == dst.shape
    # weights must line up with the CSR order of each vertex
    offset = 0
    for vertex in frontier:
        deg = graph.out_degree(int(vertex))
        expected = graph.edge_weights_of(int(vertex))
        assert np.array_equal(weights[offset: offset + deg], expected)
        offset += deg


def test_gather_matches_naive_on_random_frontiers(skewed_graph):
    rng = np.random.default_rng(7)
    for __ in range(10):
        frontier = np.unique(
            rng.integers(0, skewed_graph.num_vertices, size=60)
        )
        __, dst, __w = gather_edges(skewed_graph, frontier)
        naive = (
            np.concatenate(
                [skewed_graph.neighbors(int(v)) for v in frontier]
            )
            if frontier.size
            else np.empty(0)
        )
        assert np.array_equal(dst, naive)


def test_gather_edge_positions_consistency(skewed_graph):
    frontier = np.array([1, 2, 3], dtype=np.int64)
    sources, positions = gather_edge_positions(skewed_graph, frontier)
    assert np.array_equal(
        skewed_graph.indices[positions],
        gather_edges(skewed_graph, frontier)[1],
    )
    degrees = skewed_graph.out_degrees(frontier)
    assert np.array_equal(sources, np.repeat(frontier, degrees))


# ----------------------------------------------------------------------
# distinct_vertices: np.unique for vertex ids, on a reusable bitmap
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    num_vertices=st.integers(1, 200),
    size=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_distinct_vertices_matches_np_unique(num_vertices, size, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, num_vertices, size=size)
    scratch = np.zeros(num_vertices, dtype=bool)
    got = distinct_vertices(ids, num_vertices, scratch)
    want = np.unique(ids)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert not scratch.any()
    assert np.array_equal(distinct_vertices(ids, num_vertices), want)


def test_distinct_vertices_corner_cases():
    num_vertices = 64
    scratch = np.zeros(num_vertices, dtype=bool)
    empty = distinct_vertices(np.empty(0, dtype=np.int64), num_vertices,
                              scratch)
    assert empty.size == 0 and empty.dtype == np.int64
    last = np.full(50, num_vertices - 1)  # all duplicates, id V-1
    assert distinct_vertices(last, num_vertices, scratch).tolist() == [63]
    both = np.array([63, 0, 63, 0])
    assert distinct_vertices(both, num_vertices, scratch).tolist() == [0, 63]
    assert not scratch.any()


def test_distinct_vertices_sparse_sets_never_touch_the_bitmap():
    # a set far smaller than the vertex range is sorted instead: a
    # one-vertex tail superstep must not pay an O(V) scan
    num_vertices = 1000
    poisoned = np.ones(num_vertices, dtype=bool)  # would corrupt a scan
    ids = np.array([7, 3, 7, 999])
    assert ids.size * SPARSE_DIVISOR < num_vertices
    assert distinct_vertices(ids, num_vertices, poisoned).tolist() == \
        [3, 7, 999]
    assert poisoned.all()
