"""Unit tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import CSRGraph, from_edges


def test_basic_counts(tiny_graph):
    assert tiny_graph.num_vertices == 6
    assert tiny_graph.num_edges == 7
    assert tiny_graph.directed
    assert not tiny_graph.is_weighted


def test_degrees(tiny_graph):
    assert tiny_graph.out_degree(0) == 2
    assert tiny_graph.out_degree(3) == 1
    out = tiny_graph.out_degrees()
    assert out.tolist() == [2, 1, 1, 1, 1, 1]
    sub = tiny_graph.out_degrees(np.array([0, 3]))
    assert sub.tolist() == [2, 1]
    in_deg = tiny_graph.in_degrees()
    assert in_deg.tolist() == [1, 1, 1, 2, 1, 1]
    assert int(in_deg.sum()) == tiny_graph.num_edges


def test_neighbors(tiny_graph):
    assert tiny_graph.neighbors(0).tolist() == [1, 2]
    assert tiny_graph.neighbors(5).tolist() == [0]
    assert sorted(tiny_graph.in_neighbors(3).tolist()) == [1, 2]
    assert tiny_graph.in_neighbors(0).tolist() == [5]


def test_iter_edges(tiny_graph):
    edges = list(tiny_graph.iter_edges())
    assert (0, 1, 1.0) in edges
    assert (5, 0, 1.0) in edges
    assert len(edges) == 7


def test_edge_array(tiny_graph):
    src, dst = tiny_graph.edge_array()
    assert src.tolist() == [0, 0, 1, 2, 3, 4, 5]
    assert dst.tolist() == [1, 2, 3, 3, 4, 5, 0]


def test_reversed(tiny_graph):
    rev = tiny_graph.reversed()
    assert rev.num_edges == tiny_graph.num_edges
    assert sorted(rev.neighbors(3).tolist()) == [1, 2]
    assert rev.neighbors(0).tolist() == [5]


def test_reversed_preserves_weights():
    graph = from_edges([(0, 1, 2.0), (1, 2, 3.0), (2, 0, 5.0)])
    rev = graph.reversed()
    # edge 0->1 w=2 becomes 1->0 w=2
    idx = rev.neighbors(1).tolist().index(0)
    assert rev.edge_weights_of(1)[idx] == 2.0


def test_edge_weights_default_ones(tiny_graph):
    assert tiny_graph.edge_weights_of(0).tolist() == [1.0, 1.0]


def test_with_unit_weights(tiny_graph):
    weighted = tiny_graph.with_unit_weights()
    assert weighted.is_weighted
    assert weighted.weights.tolist() == [1.0] * 7


def test_with_name(tiny_graph):
    renamed = tiny_graph.with_name("other")
    assert renamed.name == "other"
    assert renamed.num_edges == tiny_graph.num_edges
    assert tiny_graph.name == "tiny"


def test_arrays_readonly(tiny_graph):
    with pytest.raises(ValueError):
        tiny_graph.indptr[0] = 5
    with pytest.raises(ValueError):
        tiny_graph.indices[0] = 5


def test_empty_graph():
    graph = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
    assert graph.num_vertices == 0
    assert graph.num_edges == 0


def test_isolated_vertices():
    graph = from_edges([(0, 1)], num_vertices=5)
    assert graph.num_vertices == 5
    assert graph.out_degree(4) == 0
    assert graph.neighbors(4).size == 0


@pytest.mark.parametrize(
    "indptr, indices, message",
    [
        ([1, 2], [0], "indptr"),  # indptr[0] != 0
        ([0, 2], [0], "indptr"),  # indptr[-1] != len(indices)
        ([0, 2, 1, 2], [0, 1], "non-decreasing"),
        ([0, 1], [3], "out of range"),
    ],
)
def test_invalid_csr(indptr, indices, message):
    with pytest.raises(GraphError, match=message):
        CSRGraph(
            np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
        )


def test_weights_must_be_parallel():
    with pytest.raises(GraphError, match="parallel"):
        CSRGraph(
            np.array([0, 1]),
            np.array([0]),
            weights=np.array([1.0, 2.0]),
        )


def test_repr(tiny_graph):
    text = repr(tiny_graph)
    assert "tiny" in text
    assert "|V|=6" in text


def test_symmetrized_is_built_once_and_equals_symmetrize(skewed_graph):
    import pickle

    from repro.graph import symmetrize

    sym = skewed_graph.symmetrized()
    assert skewed_graph.symmetrized() is sym
    fresh = symmetrize(skewed_graph)
    assert not sym.directed and sym.name == skewed_graph.name
    assert np.array_equal(sym.indptr, fresh.indptr)
    assert np.array_equal(sym.indices, fresh.indices)
    # a relabelled copy does not inherit a closure carrying the old name
    renamed = skewed_graph.with_name("other")
    assert renamed.symmetrized() is not sym
    assert renamed.symmetrized().name == "other"
    # caches never travel with a pickled graph
    assert pickle.loads(pickle.dumps(skewed_graph))._symmetric_cache is None


def test_facade_symmetrizes_a_directed_input_once(monkeypatch,
                                                  skewed_graph):
    import repro
    from repro.graph import builders

    calls = []
    symmetrize = builders.symmetrize

    def counting(graph, *args, **kwargs):
        calls.append(graph)
        return symmetrize(graph, *args, **kwargs)

    monkeypatch.setattr(builders, "symmetrize", counting)
    graph = skewed_graph.with_name("directed-wcc")
    first = repro.run(graph, "wcc", num_gpus=4)
    second = repro.run(graph, "wcc", num_gpus=4)
    assert calls == [graph]
    assert np.array_equal(first.values, second.values)
    assert first.total_ms == second.total_ms
