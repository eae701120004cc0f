"""Unit tests for structural graph properties."""

import numpy as np
import pytest

from repro.graph import (
    bfs_levels,
    degree_entropy,
    degree_summary,
    from_edges,
    gini_coefficient,
    path_graph,
    pseudo_diameter,
    star,
)
from repro.algorithms.validate import reference_bfs, reference_wcc


def test_gini_uniform_is_zero():
    assert gini_coefficient(np.full(50, 7.0)) == pytest.approx(0.0, abs=1e-9)


def test_gini_concentrated_is_high():
    values = np.zeros(100)
    values[0] = 100.0
    assert gini_coefficient(values) > 0.95


def test_gini_bounds_and_edge_cases():
    assert gini_coefficient(np.array([])) == 0.0
    assert gini_coefficient(np.zeros(10)) == 0.0
    with pytest.raises(ValueError):
        gini_coefficient(np.array([-1.0, 2.0]))


def test_gini_scale_invariant():
    values = np.array([1.0, 2.0, 3.0, 10.0])
    assert gini_coefficient(values) == pytest.approx(
        gini_coefficient(values * 13.0)
    )


def test_entropy_uniform_is_max():
    uniform = degree_entropy(np.full(64, 4.0))
    assert uniform == pytest.approx(1.0, abs=1e-9)


def test_entropy_concentrated_is_low():
    values = np.zeros(64)
    values[0] = 100.0
    assert degree_entropy(values) == pytest.approx(0.0, abs=1e-9)


def test_entropy_edge_cases():
    assert degree_entropy(np.array([5.0])) == 0.0
    assert degree_entropy(np.zeros(10)) == 0.0


def test_degree_summary(tiny_graph):
    summary = degree_summary(tiny_graph)
    assert summary.avg_out_degree == pytest.approx(7 / 6)
    assert summary.avg_in_degree == pytest.approx(7 / 6)
    assert summary.max_out_degree == 2
    assert summary.out_degree_range == 1
    assert 0 <= summary.gini <= 1
    assert 0 <= summary.entropy <= 1
    assert set(summary.as_dict()) == {
        "avg_in_degree", "avg_out_degree", "in_degree_range",
        "out_degree_range", "max_out_degree", "gini", "entropy",
    }


def test_bfs_levels_tiny(tiny_graph):
    levels = bfs_levels(tiny_graph, 0)
    assert levels.tolist() == [0, 1, 1, 2, 3, 4]


def test_bfs_levels_unreachable():
    graph = from_edges([(0, 1)], num_vertices=3)
    levels = bfs_levels(graph, 0)
    assert levels.tolist() == [0, 1, -1]


def test_bfs_levels_matches_reference(skewed_graph, source):
    ours = bfs_levels(skewed_graph, source)
    ref = reference_bfs(skewed_graph, source)
    reachable = ours >= 0
    assert np.array_equal(np.isfinite(ref), reachable)
    assert np.allclose(ours[reachable], ref[reachable])


def test_pseudo_diameter_path():
    assert pseudo_diameter(path_graph(30)) == 29


def test_pseudo_diameter_star():
    assert pseudo_diameter(star(20)) == 2


def test_connectivity():
    assert np.unique(reference_wcc(path_graph(10))).size == 1
    split = from_edges([(0, 1), (2, 3)], num_vertices=4)
    assert reference_wcc(split).tolist() == [0, 0, 2, 2]


def test_largest_component_with_isolated():
    graph = from_edges([(0, 1)], num_vertices=4)
    assert reference_wcc(graph).tolist() == [0, 0, 2, 3]
