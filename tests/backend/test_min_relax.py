"""The thread path's merge: per-fragment reduces applied with one relax.

A threaded min-propagation superstep reduces each fragment's out-edges
to ``(touched, minima)`` on its thread and applies the concatenation
of every fragment's pair with :meth:`MinScatter.relax` on the
coordinator. These tests drive single supersteps through the session
and require each to equal one global ``MinScatter.relax`` over the
undivided frontier's edges — values bit for bit, the next frontier,
and both message counts under three worker maps — on graphs built to
hit the merge's corners.
"""

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.minprop import MinScatter
from repro.backend import Session
from repro.graph.builders import from_edge_arrays
from repro.graph.gather import gather_edges
from repro.partition.base import Partition
from repro.runtime import Frontier
from repro.runtime.scheduler import RunContext
from tests.backend.helpers import forced_path, no_backend_threads


def _multigraph(seed: int = 0):
    """60 vertices, the last 20 isolated; duplicate edges and
    self-loops drawn on purpose, weights with ties."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, 40, size=300)
    destinations = rng.integers(0, 40, size=300)
    sources = np.concatenate([sources, sources[:50], np.arange(10)])
    destinations = np.concatenate([destinations, destinations[:50],
                                   np.arange(10)])
    weights = rng.integers(1, 4, size=sources.size).astype(np.float64)
    return from_edge_arrays(sources, destinations, num_vertices=60,
                            weights=weights)


GRAPHS = {
    # three parallel 0→1 edges (two tied), plus a path that beats them
    "parallel-edges": lambda: from_edge_arrays(
        [0, 0, 0, 2, 2, 3], [1, 1, 1, 1, 3, 1], num_vertices=4,
        weights=[5.0, 2.0, 2.0, 1.0, 4.0, 0.5],
    ),
    "self-loops": lambda: from_edge_arrays(
        [0, 1, 1, 2, 2], [0, 1, 2, 2, 0], num_vertices=3,
        weights=[1.0, 1.0, 1.0, 0.0, 2.0],
    ),
    "isolated": lambda: from_edge_arrays(
        [0, 1, 2, 3], [1, 2, 3, 0], num_vertices=10,
        weights=[1.0, 1.0, 1.0, 1.0],
    ),
    "multigraph": _multigraph,
}


def _cases(graph):
    """``(label, owner, num_fragments, frontier)`` per corner."""
    n = graph.num_vertices
    everyone = np.arange(n, dtype=np.int64)
    yield "all-active", everyone % 3, 3, everyone
    # fragment 1 owns no frontier vertex: it gets no task
    yield "idle-fragment", everyone % 3, 3, everyone[everyone % 3 != 1]
    # 8 fragments for at most 2 active vertices
    yield "more-fragments", everyone % 8, 8, everyone[: min(2, n)]


def _context(graph, partition, worker):
    k = partition.num_fragments
    return RunContext(
        graph=graph, partition=partition, timing=None,
        fragment_home=np.arange(k, dtype=np.int64),
        fragment_worker=np.asarray(worker, dtype=np.int64),
    )


@pytest.mark.parametrize("algorithm_name", ["sssp", "wcc"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_concatenated_partials_equal_one_global_relax(graph_name,
                                                      algorithm_name):
    graph = GRAPHS[graph_name]()
    algorithm = make_algorithm(algorithm_name)
    rng = np.random.default_rng(1)
    for label, owner, k, active in _cases(graph):
        partition = Partition(graph, owner, k)
        state = algorithm.init(graph) if algorithm_name == "wcc" else \
            algorithm.init(graph, source=0)
        # finite values with ties and a few unreached vertices
        state.values[:] = rng.integers(0, 6, size=graph.num_vertices)
        state.values[rng.random(graph.num_vertices) < 0.2] = np.inf
        frontier = Frontier(active)
        state.frontier = frontier

        sources, destinations, weights = gather_edges(graph, active)
        expected = state.values.copy()
        improved = MinScatter(graph.num_vertices).relax(
            expected, destinations,
            algorithm.candidates(state.values, sources, weights),
        )
        with forced_path(False):
            serial = Session(graph, partition, algorithm, state)
        with forced_path(True):
            session = Session(graph, partition, algorithm, state)
        try:
            session.begin_iteration(
                frontier.split_by_owner(partition.owner, k, graph)
            )
            folded = np.zeros(k, dtype=np.int64)  # one worker: no message
            for worker in (np.arange(k), np.arange(k) // 2, folded):
                context = _context(graph, partition, worker)
                for aggregate in (True, False):
                    assert session.message_count(
                        frontier, aggregate, context
                    ) == serial.message_count(
                        frontier, aggregate, context
                    ), (label, worker, aggregate)
            step = session.step()
        finally:
            session.close()
        assert session.stats()["threaded_steps"] == 1, label
        assert np.array_equal(state.values, expected), label
        assert np.array_equal(step.vertices, improved), label
        assert no_backend_threads()
