"""Unit tests for Table-I frontier features."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import from_edge_arrays
from repro.graph.properties import degree_entropy, gini_coefficient
from repro.graph.features import (
    FEATURE_NAMES,
    FrontierFeatures,
    frontier_features,
)


def test_empty_frontier(tiny_graph):
    feats = frontier_features(tiny_graph, np.array([], dtype=np.int64))
    assert feats == FrontierFeatures.empty()
    assert feats.total_edges == 0
    assert np.array_equal(feats.vector(), np.zeros(6))


def test_tiny_frontier_values(tiny_graph):
    feats = frontier_features(tiny_graph, np.array([0, 3]))
    # out-degrees: 2 and 1; in-degrees: 1 and 2
    assert feats.avg_out_degree == pytest.approx(1.5)
    assert feats.avg_in_degree == pytest.approx(1.5)
    assert feats.out_degree_range == 1
    assert feats.in_degree_range == 1
    assert feats.size == 2
    assert feats.total_edges == 3


def test_vector_order(tiny_graph):
    feats = frontier_features(tiny_graph, np.array([0]))
    vector = feats.vector()
    assert vector.shape == (len(FEATURE_NAMES),)
    assert vector[0] == feats.avg_in_degree
    assert vector[1] == feats.avg_out_degree
    assert vector[4] == feats.gini
    assert vector[5] == feats.entropy


def test_single_vertex_has_zero_ranges(skewed_graph):
    feats = frontier_features(skewed_graph, np.array([3]))
    assert feats.out_degree_range == 0
    assert feats.in_degree_range == 0
    assert feats.gini == pytest.approx(0.0, abs=1e-12)


def test_full_frontier_matches_graph_totals(skewed_graph):
    everyone = np.arange(skewed_graph.num_vertices, dtype=np.int64)
    feats = frontier_features(skewed_graph, everyone)
    assert feats.total_edges == skewed_graph.num_edges
    assert feats.avg_out_degree == pytest.approx(
        skewed_graph.num_edges / skewed_graph.num_vertices
    )


def test_features_bounded(skewed_graph):
    rng = np.random.default_rng(0)
    for __ in range(5):
        frontier = np.unique(
            rng.integers(0, skewed_graph.num_vertices, size=100)
        )
        feats = frontier_features(skewed_graph, frontier)
        assert 0.0 <= feats.gini <= 1.0
        assert 0.0 <= feats.entropy <= 1.0 + 1e-9
        assert feats.total_edges >= 0


# ----------------------------------------------------------------------
# segmented form: every fragment of a superstep in one pass
# ----------------------------------------------------------------------
def _plain_features(graph, vertices):
    """Each Table-I statistic computed on its own, one fragment."""
    if vertices.size == 0:
        return FrontierFeatures.empty()
    out_deg = graph.out_degrees(vertices)
    in_deg = graph.in_degrees()[vertices]
    return FrontierFeatures(
        avg_in_degree=float(in_deg.mean()),
        avg_out_degree=float(out_deg.mean()),
        in_degree_range=float(in_deg.max() - in_deg.min()),
        out_degree_range=float(out_deg.max() - out_deg.min()),
        gini=gini_coefficient(out_deg),
        entropy=degree_entropy(out_deg),
        size=int(vertices.size),
        total_edges=int(out_deg.sum()),
    )


@settings(max_examples=80, deadline=None)
@given(
    num_vertices=st.integers(1, 500),
    edge_factor=st.integers(0, 5),
    num_fragments=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_segmented_features_equal_one_fragment_at_a_time(
    num_vertices, edge_factor, num_fragments, seed
):
    rng = np.random.default_rng(seed)
    num_edges = edge_factor * num_vertices
    # skewed sources; the high ids keep zero out-degree
    src = (rng.random(num_edges) ** 2 * num_vertices * 0.8).astype(np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges)
    graph = from_edge_arrays(src, dst, num_vertices=num_vertices)
    vertices = np.flatnonzero(rng.random(num_vertices) < rng.random())
    owners = rng.integers(0, num_fragments, size=vertices.size)
    order = np.argsort(owners, kind="stable")
    boundaries = np.searchsorted(
        owners[order], np.arange(num_fragments + 1)
    )
    ordered = vertices[order]
    segmented = frontier_features(graph, ordered, boundaries)
    assert len(segmented) == num_fragments
    for index, got in enumerate(segmented):
        part = ordered[boundaries[index]: boundaries[index + 1]]
        # frozen dataclasses compare field by field, bit for bit
        assert got == frontier_features(graph, part)
        assert got == _plain_features(graph, part)
        assert type(got.gini) is float and type(got.size) is int


def test_segmented_features_empty_single_equal_and_long_segments():
    ring = from_edge_arrays(
        np.arange(300), (np.arange(300) + 1) % 300, num_vertices=300
    )  # all-equal degrees
    star = from_edge_arrays(
        np.zeros(299, dtype=np.int64), np.arange(1, 300), num_vertices=300
    )  # one hub and 299 zero-out-degree vertices
    everyone = np.arange(300, dtype=np.int64)
    # empty, one vertex, 199 (> one 128-wide pairwise-sum block),
    # empty, the rest
    boundaries = np.array([0, 0, 1, 200, 200, 300])
    for graph in (ring, star):
        got = frontier_features(graph, everyone, boundaries)
        for index in range(5):
            part = everyone[boundaries[index]: boundaries[index + 1]]
            assert got[index] == _plain_features(graph, part)
    no_edges = frontier_features(star, everyone[1:], np.array([0, 299]))[0]
    assert no_edges.total_edges == 0
    assert no_edges.gini == 0.0 and no_edges.entropy == 0.0
