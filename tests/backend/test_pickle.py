"""Pickle round-trips of the core runtime objects.

A user who saves or ships a graph, partition, plan or algorithm state
gets it back whole: no closures, no leaked caches, and the read-only
invariants — which numpy does not preserve across pickling — restored
on load by the objects' own hooks.
"""

import pickle

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, AlgorithmState, make_algorithm
from repro.graph import datasets
from repro.graph.builders import from_edges
from repro.partition.partitioners import make_partition
from repro.runtime.frontier import Frontier
from repro.runtime.scheduler import IterationPlan


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def weighted_graph():
    return from_edges(
        [(0, 1, 2.0), (1, 2, 0.5), (2, 0, 1.0), (0, 3, 4.0)],
        num_vertices=4, name="pickle-me",
    )


# ----------------------------------------------------------------------
# Frontier
# ----------------------------------------------------------------------
def test_frontier_roundtrip_preserves_vertices_and_readonly():
    frontier = Frontier(np.array([5, 1, 3, 1]))
    clone = roundtrip(frontier)
    assert clone == frontier
    assert clone.vertices.dtype == np.int64
    assert not clone.vertices.flags.writeable


def test_frontier_roundtrip_drops_memo_cache():
    graph = weighted_graph()
    frontier = Frontier(np.array([0, 1]))
    frontier.work(graph)
    frontier.gather(graph)
    assert frontier._cache
    clone = roundtrip(frontier)
    assert clone._cache == {}
    # memoization still functions after the trip
    assert clone.work(graph) == frontier.work(graph)
    assert "work" in clone._cache


def test_empty_frontier_roundtrip():
    clone = roundtrip(Frontier.empty())
    assert clone.size == 0
    assert clone.vertices.dtype == np.int64


# ----------------------------------------------------------------------
# Graph and partition
# ----------------------------------------------------------------------
def test_csr_graph_roundtrip():
    graph = weighted_graph()
    clone = roundtrip(graph)
    assert np.array_equal(clone.indptr, graph.indptr)
    assert np.array_equal(clone.indices, graph.indices)
    assert np.array_equal(clone.weights, graph.weights)
    assert clone.directed == graph.directed
    assert clone.name == graph.name
    # construction invariants survive the trip
    assert not clone.indices.flags.writeable
    assert clone.indptr.dtype == np.int64


def test_partition_roundtrip():
    graph = datasets.load("TX")
    partition = make_partition("random", graph, 4, seed=0)
    clone = roundtrip(partition)
    assert np.array_equal(clone.owner, partition.owner)
    assert clone.num_fragments == partition.num_fragments
    assert np.array_equal(clone.graph.indptr, graph.indptr)


# ----------------------------------------------------------------------
# Plans and state
# ----------------------------------------------------------------------
def test_iteration_plan_roundtrip():
    plan = IterationPlan(
        active_workers=[1, 2],
        owner=[1], worker=[2], edges=[7], hub_edges=[2], start=[3],
        stop=[5],
        decision_seconds=1e-6, fsteal_applied=True,
        osteal_group_size=2, stolen_edges=7,
    )
    clone = roundtrip(plan)
    assert clone.active_workers == [1, 2]
    assert clone.fsteal_applied and clone.osteal_group_size == 2
    assert (clone.owner, clone.worker) == ([1], [2])
    assert (clone.start, clone.stop) == ([3], [5])
    assert (clone.edges, clone.hub_edges) == ([7], [2])


def test_algorithm_state_roundtrip():
    graph = weighted_graph()
    state = make_algorithm("bfs").init(graph, source=0)
    state.aux["scratch"] = np.full(4, np.inf)
    clone = roundtrip(state)
    assert np.array_equal(clone.values, state.values)
    assert clone.frontier == state.frontier
    assert clone.iteration == state.iteration
    assert np.array_equal(clone.aux["scratch"], state.aux["scratch"])


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_algorithm_instance_pickles(name):
    clone = roundtrip(make_algorithm(name))
    assert clone.name == name
    assert type(clone) is ALGORITHMS[name]

