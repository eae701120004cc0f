"""Unit tests for synthetic graph generators."""

import numpy as np
import pytest

from repro.algorithms.validate import reference_wcc
from repro.errors import GraphError
from repro.graph import (
    complete_graph,
    erdos_renyi,
    grid_2d,
    path_graph,
    rmat,
    road_network,
    small_world,
    star,
    web_graph,
    with_random_weights,
)
from repro.graph import generators
from repro.graph.properties import degree_summary, pseudo_diameter


def test_rmat_shape_and_determinism():
    a = rmat(9, 8, seed=1)
    b = rmat(9, 8, seed=1)
    assert a.num_vertices == 512
    assert a.num_edges == b.num_edges
    assert np.array_equal(a.indices, b.indices)
    c = rmat(9, 8, seed=2)
    assert not np.array_equal(a.indices, c.indices)


def test_rmat_is_skewed():
    graph = rmat(11, 12, seed=0)
    summary = degree_summary(graph)
    assert summary.gini > 0.5
    assert summary.max_out_degree > 20 * summary.avg_out_degree


def test_rmat_no_self_loops_or_duplicates():
    graph = rmat(8, 8, seed=3)
    src, dst = graph.edge_array()
    assert np.all(src != dst)
    keys = src * graph.num_vertices + dst
    assert np.unique(keys).size == keys.size


def test_rmat_param_validation():
    with pytest.raises(GraphError):
        rmat(0)
    with pytest.raises(GraphError):
        rmat(8, a=0.9, b=0.1, c=0.1)


def _one_shot_rmat(monkeypatch, *args, **kwargs):
    """``rmat`` drawn in one batch: one slice of each RNG stream."""
    with monkeypatch.context() as patch:
        patch.setattr(generators, "_EDGE_BATCH", 2**62)
        return rmat(*args, **kwargs)


@pytest.mark.parametrize("edge_batch", [1, 7, 1000, 2048, 10**9])
def test_rmat_chunked_is_seed_identical(monkeypatch, edge_batch):
    # chunked generation replays slices of the one-shot RNG stream,
    # so any batch size — including ones that don't divide |E| and
    # ones larger than |E| — must reproduce the graph bit-for-bit
    one_shot = _one_shot_rmat(monkeypatch, 8, 8, seed=11)
    monkeypatch.setattr(generators, "_EDGE_BATCH", edge_batch)
    chunked = rmat(8, 8, seed=11)
    assert chunked.num_edges == one_shot.num_edges
    assert np.array_equal(chunked.indptr, one_shot.indptr)
    assert np.array_equal(chunked.indices, one_shot.indices)


def test_rmat_chunked_larger_graph_seed_identical(monkeypatch):
    one_shot = _one_shot_rmat(monkeypatch, 11, 16, seed=5)
    monkeypatch.setattr(generators, "_EDGE_BATCH", 4096)
    chunked = rmat(11, 16, seed=5)
    assert np.array_equal(chunked.indptr, one_shot.indptr)
    assert np.array_equal(chunked.indices, one_shot.indices)


def test_erdos_renyi_exact_edges():
    graph = erdos_renyi(100, 500, seed=0)
    assert graph.num_vertices == 100
    assert graph.num_edges == 500
    src, dst = graph.edge_array()
    assert np.all(src != dst)


def test_erdos_renyi_too_many_edges():
    with pytest.raises(GraphError, match="too many"):
        erdos_renyi(3, 100)


def test_grid_2d():
    graph = grid_2d(4, 5)
    assert graph.num_vertices == 20
    # 2 * (horizontal + vertical) lattice edges
    assert graph.num_edges == 2 * (4 * 4 + 3 * 5)
    assert np.unique(reference_wcc(graph)).size == 1


def test_road_network_regime():
    graph = road_network(6, 120, seed=0)
    summary = degree_summary(graph)
    assert summary.avg_out_degree < 4.5
    assert pseudo_diameter(graph) > 60
    __, sizes = np.unique(reference_wcc(graph), return_counts=True)
    assert sizes.max() / graph.num_vertices > 0.95


def test_road_network_permutation_optional():
    raw = road_network(5, 30, seed=1, permute_ids=False)
    permuted = road_network(5, 30, seed=1, permute_ids=True)
    assert raw.num_edges == permuted.num_edges
    assert not np.array_equal(raw.indices, permuted.indices)


def test_road_network_too_small():
    with pytest.raises(GraphError):
        road_network(1, 5)


def test_web_graph_regime():
    graph = web_graph(3000, 10, seed=0)
    assert graph.num_vertices == 3000
    summary = degree_summary(graph)
    assert summary.gini > 0.2  # out-degrees are Pareto-tailed
    src, dst = graph.edge_array()
    assert np.all(src != dst)


def test_web_graph_locality_bounds():
    with pytest.raises(GraphError):
        web_graph(100, 5, locality=1.5)
    with pytest.raises(GraphError):
        web_graph(1, 5)


def test_small_world():
    graph = small_world(200, k=3, seed=0)
    assert graph.num_vertices == 200
    assert not graph.directed
    with pytest.raises(GraphError):
        small_world(2, k=1)
    with pytest.raises(GraphError):
        small_world(10, k=9)


def test_star():
    graph = star(10)
    assert graph.num_vertices == 11
    assert graph.out_degree(0) == 10
    assert graph.out_degree(5) == 1


def test_path_graph():
    graph = path_graph(5)
    assert graph.num_edges == 8  # 4 undirected edges stored both ways
    assert pseudo_diameter(graph) == 4
    single = path_graph(1)
    assert single.num_vertices == 1
    assert single.num_edges == 0


def test_complete_graph():
    graph = complete_graph(5)
    assert graph.num_edges == 20
    assert all(graph.out_degree(v) == 4 for v in range(5))


def test_with_random_weights():
    base = path_graph(20)
    weighted = with_random_weights(base, low=1, high=4, seed=0)
    assert weighted.is_weighted
    assert weighted.weights.min() >= 1
    assert weighted.weights.max() <= 4
    assert np.all(weighted.weights == np.rint(weighted.weights))
    real = with_random_weights(base, low=0.5, high=2.0, integer=False,
                               seed=0)
    assert real.weights.min() >= 0.5
    with pytest.raises(GraphError, match="empty"):
        with_random_weights(base, low=5, high=1)


def test_weights_preserve_structure():
    base = rmat(8, 6, seed=2)
    weighted = with_random_weights(base, seed=0)
    assert np.array_equal(weighted.indices, base.indices)
    assert np.array_equal(weighted.indptr, base.indptr)
