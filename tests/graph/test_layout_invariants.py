"""Array-layout invariants every construction path must satisfy.

The gather kernels index ``indptr``/``indices``/``weights`` as
contiguous typed buffers, so a graph whose arrays are non-contiguous,
non-``int64``, or the product of a silent lossy cast would corrupt
every superstep. These tests pin the guarantee that
:class:`CSRGraph` normalizes layout at construction — over every
builder, loader, generator, and derived-graph path — and that lossy
numeric casts are rejected instead of truncated.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import builders, generators, io_npz
from repro.graph.csr import CSRGraph


def _assert_layout(graph: CSRGraph) -> None:
    assert graph.indptr.dtype == np.int64
    assert graph.indices.dtype == np.int64
    assert graph.indptr.flags.c_contiguous
    assert graph.indices.flags.c_contiguous
    assert not graph.indptr.flags.writeable
    assert not graph.indices.flags.writeable
    if graph.weights is not None:
        assert graph.weights.dtype == np.float64
        assert graph.weights.flags.c_contiguous
        assert not graph.weights.flags.writeable


def _edges():
    src = np.array([0, 0, 1, 2, 3], dtype=np.int64)
    dst = np.array([1, 2, 2, 3, 0], dtype=np.int64)
    wts = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    return src, dst, wts


# ----------------------------------------------------------------------
# Every builder / loader / generator path yields the canonical layout
# ----------------------------------------------------------------------
def test_direct_construction_normalizes_dtype_and_stride():
    # int32 inputs and strided views are legal — they are normalized
    indptr = np.array([0, 1, 2], dtype=np.int32)
    indices = np.array([1, 5, 0, 5], dtype=np.int16)[::2]  # strided view
    graph = CSRGraph(indptr, indices)
    _assert_layout(graph)
    assert graph.num_edges == 2
    assert graph.indices.tolist() == [1, 0]


def test_from_edge_arrays_layout():
    src, dst, wts = _edges()
    graph = builders.from_edge_arrays(
        src.astype(np.int32), dst.astype(np.uint32), weights=wts
    )
    _assert_layout(graph)


def test_from_edges_layout():
    graph = builders.from_edges([(0, 1, 1.5), (1, 2, 2.5), (2, 0, 0.5)])
    _assert_layout(graph)


def test_symmetrize_and_coalesce_and_self_loop_layout():
    src, dst, wts = _edges()
    graph = builders.from_edge_arrays(src, dst, weights=wts)
    for derived in (
        builders.symmetrize(graph),
        builders.coalesce_duplicates(graph),
        builders.remove_self_loops(graph),
    ):
        _assert_layout(derived)


def test_load_edge_list_layout(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1 2.0\n1 2 3.0\n2 0 4.0\n")
    _assert_layout(builders.load_edge_list(path))


def test_load_matrix_market_layout(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n1 2 1.0\n2 3 2.0\n3 1 3.0\n"
    )
    _assert_layout(builders.load_matrix_market(path))


def test_npz_roundtrip_layout(tmp_path):
    src, dst, wts = _edges()
    graph = builders.from_edge_arrays(src, dst, weights=wts)
    path = tmp_path / "g.npz"
    io_npz.save_graph(graph, path)
    loaded = io_npz.load_graph(path)
    _assert_layout(loaded)
    assert np.array_equal(loaded.indptr, graph.indptr)
    assert np.array_equal(loaded.indices, graph.indices)
    assert np.array_equal(loaded.weights, graph.weights)


def test_generator_and_derived_layouts():
    graph = generators.rmat(6, 4, seed=3)
    _assert_layout(graph)
    _assert_layout(graph.reversed())
    _assert_layout(graph.with_unit_weights())
    _assert_layout(generators.with_random_weights(graph, seed=1))


# ----------------------------------------------------------------------
# Lossy numeric casts are rejected, not truncated
# ----------------------------------------------------------------------
def test_fractional_indptr_rejected():
    with pytest.raises(GraphError, match="losslessly"):
        CSRGraph(np.array([0.0, 1.5, 2.0]), np.array([0, 1]))


def test_fractional_indices_rejected():
    with pytest.raises(GraphError, match="losslessly"):
        CSRGraph(np.array([0, 2]), np.array([0.25, 0.75]))


def test_fractional_edge_arrays_rejected():
    with pytest.raises(GraphError, match="losslessly"):
        builders.from_edge_arrays(np.array([0.5, 1.0]), np.array([1, 0]))
    with pytest.raises(GraphError, match="losslessly"):
        builders.from_edge_arrays(np.array([0, 1]), np.array([1.0, 0.5]))


def test_exact_float_indices_accepted():
    # exact integral floats carry no information loss — allowed
    graph = CSRGraph(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0]))
    _assert_layout(graph)
    assert graph.indices.tolist() == [1, 0]


# ----------------------------------------------------------------------
# reversed() weights are aligned with the cached CSC permutation
# ----------------------------------------------------------------------
def test_reversed_weights_match_in_neighbor_order():
    rng = np.random.default_rng(7)
    graph = generators.with_random_weights(
        generators.rmat(7, 6, seed=11), seed=5
    )
    rev = graph.reversed()
    # the multiset of (src, dst, weight) triples must be flipped exactly
    forward = {}
    for u, v, w in graph.iter_edges():
        forward.setdefault((v, u), []).append(w)
    for v, u, w in rev.iter_edges():
        assert w in forward[(v, u)], (v, u, w)
        forward[(v, u)].remove(w)
    assert all(not ws for ws in forward.values())
    # per-vertex: rev's neighbor list of v is exactly in_neighbors(v),
    # and the parallel weights follow the same stable CSC order (each
    # source's parallel edges keep their CSR-relative order)
    per_pair = {}
    for u, v, w in graph.iter_edges():
        per_pair.setdefault((u, v), []).append(w)
    for v in rng.choice(graph.num_vertices, size=16, replace=False):
        v = int(v)
        assert np.array_equal(rev.neighbors(v), graph.in_neighbors(v))
        expected, taken = [], {}
        for u in graph.in_neighbors(v).tolist():
            k = taken.get((u, v), 0)
            taken[(u, v)] = k + 1
            expected.append(per_pair[(u, v)][k])
        assert np.array_equal(rev.edge_weights_of(v), expected)


def test_csc_order_cached_and_shared():
    graph = generators.with_random_weights(
        generators.rmat(5, 4, seed=2), seed=3
    )
    graph.reverse_adjacency()
    cached = graph._csc_order_cache
    assert cached is not None
    graph.reversed()
    assert graph._csc_order_cache is cached  # no recompute
    copy = graph.with_name("alias")
    assert copy._csc_order_cache is cached
