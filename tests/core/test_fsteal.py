"""Unit tests for FSteal: cost matrix and vertex selection (Algorithm 1)."""

import numpy as np
import pytest

from repro import config
from repro.core import (
    FStealProblem,
    OracleCostModel,
    build_cost_matrix,
    make_solver,
)
from repro.errors import SolverError
from repro.graph.features import frontier_features
from repro.hardware import dgx1, measure_comm_cost_matrix
from repro.runtime import Frontier, select_vertices


@pytest.fixture()
def comm_cost(topology8):
    return measure_comm_cost_matrix(topology8, config.BYTES_PER_EDGE,
                                    seed=0)


def fragment_features(graph, partition_vertices):
    return [frontier_features(graph, v) for v in partition_vertices]


def test_cost_matrix_structure(skewed_graph, comm_cost):
    frontiers = [
        np.arange(i * 10, i * 10 + 10, dtype=np.int64) for i in range(8)
    ]
    features = fragment_features(skewed_graph, frontiers)
    home = np.arange(8, dtype=np.int64)
    costs = build_cost_matrix(
        comm_cost, features, OracleCostModel(), home,
        allowed_workers=[0, 1, 2, 3],
    )
    assert costs.shape == (8, 8)
    assert np.all(np.isinf(costs[:, 4:]))
    assert np.all(np.isfinite(costs[:, :4]))
    # c_ij = 1/B_ij + g(W_i): the same g is added across the row, so
    # column differences equal communication-cost differences
    row_gap = costs[2, 1] - costs[2, 0]
    comm_gap = comm_cost[2, 1] - comm_cost[2, 0]
    assert row_gap == pytest.approx(comm_gap)


def test_cost_matrix_local_cheapest(skewed_graph, comm_cost):
    frontiers = [
        np.arange(i * 5, i * 5 + 5, dtype=np.int64) for i in range(8)
    ]
    features = fragment_features(skewed_graph, frontiers)
    home = np.arange(8, dtype=np.int64)
    costs = build_cost_matrix(comm_cost, features, OracleCostModel(), home)
    for i in range(8):
        assert costs[i, i] == costs[i].min()


def test_cost_matrix_no_workers(skewed_graph, comm_cost):
    features = fragment_features(skewed_graph, [np.array([0])])
    with pytest.raises(SolverError, match="no allowed"):
        build_cost_matrix(
            comm_cost, features, OracleCostModel(),
            np.zeros(1, dtype=np.int64), allowed_workers=[],
        )


# ----------------------------------------------------------------------
# select_vertices (Algorithm 1 lines 9-18)
# ----------------------------------------------------------------------
def test_select_vertices_partitions_frontier(skewed_graph):
    frontier = Frontier(np.arange(0, 300, 2))
    degrees = skewed_graph.out_degrees(frontier.vertices)
    total = int(degrees.sum())
    quotas = np.array([total // 4] * 3 + [total - 3 * (total // 4)]
                      + [0] * 4)
    spans = select_vertices(skewed_graph, frontier, quotas)
    covered = np.concatenate(
        [frontier.vertices[start:stop] for __, __, start, stop in spans]
    )
    assert np.array_equal(np.sort(covered), frontier.vertices)
    assert sum(edges for __, edges, __, __ in spans) == total
    # consecutive slices: each span starts where the previous stopped
    starts = [start for __, __, start, __ in spans]
    stops = [stop for __, __, __, stop in spans]
    assert starts == [0] + stops[:-1]
    assert stops[-1] == frontier.size


def test_select_vertices_quota_accuracy(skewed_graph):
    frontier = Frontier(np.arange(100, 500))
    degrees = skewed_graph.out_degrees(frontier.vertices)
    total = int(degrees.sum())
    quotas = np.array([total // 2, total - total // 2, 0, 0, 0, 0, 0, 0])
    spans = select_vertices(skewed_graph, frontier, quotas)
    max_degree = int(degrees.max())
    for (__, edges, __, __), quota in zip(spans, quotas[quotas > 0]):
        assert abs(edges - quota) <= max_degree


def test_select_vertices_single_worker(skewed_graph):
    frontier = Frontier([3, 7, 11])
    total = frontier.work(skewed_graph)
    quotas = np.zeros(8, dtype=np.int64)
    quotas[5] = total
    spans = select_vertices(skewed_graph, frontier, quotas)
    assert spans == [(5, total, 0, 3)]


def test_select_vertices_validation(skewed_graph):
    frontier = Frontier([0, 1])
    total = frontier.work(skewed_graph)
    with pytest.raises(SolverError, match="do not match"):
        select_vertices(skewed_graph, frontier, np.array([total + 5, 0]))
    with pytest.raises(SolverError, match="empty frontier"):
        select_vertices(skewed_graph, Frontier.empty(), np.array([10]))
    assert select_vertices(skewed_graph, Frontier.empty(),
                           np.array([0, 0])) == []


def test_select_vertices_realizes_a_solver_assignment(
    skewed_graph, skewed_partition, comm_cost
):
    frontier = Frontier(np.arange(0, skewed_graph.num_vertices, 3))
    fragments = frontier.split_by_owner(
        skewed_partition.owner, 8, skewed_graph
    )
    workloads = np.array([f.work(skewed_graph) for f in fragments])
    features = [
        frontier_features(skewed_graph, f.vertices) for f in fragments
    ]
    costs = build_cost_matrix(
        comm_cost, features, OracleCostModel(),
        np.arange(8, dtype=np.int64),
    )
    solution = make_solver("greedy").solve(FStealProblem(costs, workloads))
    realized = [
        sum(edges for __, edges, __, __ in select_vertices(
            skewed_graph, part, solution.assignment[fragment]
        )) if part else 0
        for fragment, part in enumerate(fragments)
    ]
    assert sum(realized) == int(workloads.sum())
    # the realized plan respects the solver's per-fragment totals
    assert realized == workloads.tolist()
