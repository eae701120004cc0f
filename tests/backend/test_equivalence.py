"""Serial vs threaded supersteps: bit-identical outputs and virtual time.

Which host threads crunch a superstep's arrays is the session's
decision, and it must never leak into results. These tests run the
same workload with every eligible superstep forced onto the
coordinator's thread and onto the thread path (which really runs one
thread per fragment over the coordinator's arrays), and require the
algorithm values, the virtual-time totals, and every per-iteration
virtual wall clock to match exactly. The last test checks which
supersteps the unforced rule threads.
"""

import pathlib
import sys

import numpy as np
import pytest

import repro
import repro.backend
from repro.chaos import ChaosController, ChaosScenario
from repro.graph import datasets
from tests.backend.helpers import forced_path, no_backend_threads

KILL_WORKER = (pathlib.Path(__file__).resolve().parents[2]
               / "benchmarks" / "scenarios" / "kill-worker.json")


def run_pair(algorithm, engine="gum", num_gpus=4, chaos=None, **params):
    """The same run never threaded, then with every eligible superstep
    threaded; ``chaos`` is a scenario path, loaded into a fresh
    controller for each run."""
    graph = datasets.load("TX")
    results = []
    for threads in (False, True):
        if chaos is not None:
            params["chaos"] = ChaosController(ChaosScenario.from_file(chaos))
        with forced_path(threads):
            results.append(repro.run(graph, algorithm, engine=engine,
                                     num_gpus=num_gpus, **params))
    return tuple(results)


def assert_equivalent(serial, shmem):
    assert np.array_equal(serial.values, shmem.values)
    assert serial.total_ms == shmem.total_ms  # bitwise, not approx
    assert serial.num_iterations == shmem.num_iterations
    assert serial.breakdown.as_dict() == shmem.breakdown.as_dict()
    for a, b in zip(serial.iterations, shmem.iterations):
        assert a.wall_seconds == b.wall_seconds
        assert np.array_equal(a.busy_seconds, b.busy_seconds)
        assert a.active_workers == b.active_workers
    assert no_backend_threads()


@pytest.mark.parametrize("algorithm,params", [
    ("bfs", {"source": 0}),
    ("sssp", {"source": 0}),
    ("wcc", {}),
])
def test_parallel_step_algorithms_bit_identical(algorithm, params):
    serial, shmem = run_pair(algorithm, **params)
    assert_equivalent(serial, shmem)
    assert serial.backend_stats is None
    stats = shmem.backend_stats
    assert stats["backend"] == "shmem"
    assert stats["threaded_steps"] == shmem.num_iterations
    assert stats["workers"] == min(4, repro.backend.usable_cpus())
    assert stats["tasks"] > 0


@pytest.mark.parametrize("algorithm,params", [
    ("bfs", {"source": 0}),
    ("sssp", {"source": 0}),
    ("wcc", {}),
])
def test_killed_worker_bit_identical(algorithm, params):
    """A killed worker rewrites ``fragment_worker`` in place between
    dispatch and count; the threads' partials must be folded under
    the rewritten map."""
    serial, shmem = run_pair(algorithm, chaos=KILL_WORKER, **params)
    assert_equivalent(serial, shmem)
    assert serial.chaos["workers_killed"] == shmem.chaos["workers_killed"]
    assert shmem.chaos["workers_killed"] == [2]
    assert shmem.backend_stats["threaded_steps"] == shmem.num_iterations


@pytest.mark.parametrize("algorithm,params", [
    ("bfs", {"source": 0}),
    ("sssp", {"source": 0}),
    ("wcc", {}),
])
def test_two_node_topology_bit_identical(algorithm, params):
    serial, shmem = run_pair(algorithm, topology="nodes=2x2", **params)
    assert_equivalent(serial, shmem)
    assert shmem.backend_stats["threaded_steps"] == shmem.num_iterations


@pytest.mark.parametrize("algorithm,params", [
    ("sssp", {"source": 0}),
    ("wcc", {}),
])
def test_eight_threads_under_a_short_switch_interval(monkeypatch,
                                                     algorithm, params):
    """More threads than cores, switching every microsecond: a task
    that wrote another fragment's row or buffers, or read values the
    coordinator was still merging, would change a value or a count.
    The pool is sized to the usable CPUs, so eight are claimed."""
    monkeypatch.setattr(repro.backend, "usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serial, shmem = run_pair(algorithm, num_gpus=8, **params)
    finally:
        sys.setswitchinterval(interval)
    assert_equivalent(serial, shmem)
    assert shmem.backend_stats["workers"] == 8


def test_serial_fallback_algorithm_bit_identical():
    # float-sum aggregation (PageRank) has no exact merge: even forced,
    # the session runs the coordinator's serial superstep and reports
    # what a run that never threads reports
    serial, shmem = run_pair("pr", num_gpus=2)
    assert_equivalent(serial, shmem)
    assert shmem.backend_stats is None


@pytest.mark.parametrize("algorithm,params", [
    ("dsssp", {"source": 0}),
    ("kcore", {"k": 3}),
    ("dpr", {}),
])
def test_serial_step_algorithms_start_no_thread(algorithm, params):
    """Delta-stepping's buckets, k-core's peeling and delta-PageRank's
    sums are no min-relax: even forced, the session runs their serial
    step and no ``repro-shmem`` thread exists at any superstep of
    either run."""
    from repro.obs import Sink, Tracer

    seen = []

    class Probe(Sink):
        def emit(self, record):
            seen.append(no_backend_threads())

    serial, shmem = run_pair(algorithm, tracer=Tracer(sinks=[Probe()]),
                             **params)
    assert_equivalent(serial, shmem)
    assert len(seen) > serial.num_iterations and all(seen)
    assert shmem.backend_stats is None


def test_plain_bsp_engine_bit_identical():
    serial, shmem = run_pair("bfs", engine="bsp", num_gpus=2, source=0)
    assert_equivalent(serial, shmem)


def test_serial_message_count_equals_the_plain_count():
    """The bitmap kernel and the per-endpoint worker lookup count what
    a ``V``-long worker-of-vertex array and ``np.unique`` count."""
    from repro.algorithms import make_algorithm
    from repro.partition import random_partition
    from repro.runtime import Frontier
    from repro.runtime.scheduler import RunContext

    graph = datasets.load("TX")
    partition = random_partition(graph, 4, seed=0)
    algorithm = make_algorithm("bfs")
    session = repro.backend.Session(graph, partition, algorithm,
                                    algorithm.init(graph, source=0))
    rng = np.random.default_rng(0)
    frontiers = [Frontier.full(graph.num_vertices), Frontier([5]),
                 Frontier.empty()] + [
        Frontier(rng.integers(0, graph.num_vertices, size=size))
        for size in (2, 40, 400)
    ]
    # identity mapping, then an OSteal-folded group (two workers)
    for mapping in ([0, 1, 2, 3], [0, 0, 3, 3]):
        context = RunContext(
            graph=graph, partition=partition, timing=None,
            fragment_home=np.arange(4, dtype=np.int64),
            fragment_worker=np.array(mapping, dtype=np.int64),
        )
        worker_of = context.fragment_worker[partition.owner]
        for frontier in frontiers:
            sources, destinations, __ = frontier.gather(graph)
            cross = worker_of[sources] != worker_of[destinations]
            assert session.message_count(
                frontier, False, context
            ) == int(np.count_nonzero(cross))
            assert session.message_count(
                frontier, True, context
            ) == np.unique(destinations[cross]).size
    assert not session._seen.any()

    # the session memoizes its last count on the frontier and the
    # worker map's value: an OSteal fold or a killed worker rewrites
    # the map in place, and the same frontier must then be recounted
    frontier = frontiers[0]
    context = RunContext(
        graph=graph, partition=partition, timing=None,
        fragment_home=np.arange(4, dtype=np.int64),
        fragment_worker=np.arange(4, dtype=np.int64),
    )
    sources, destinations, __ = frontier.gather(graph)
    for aggregate in (True, False):
        before = session.message_count(frontier, aggregate, context)
        context.fragment_worker[:] = [0, 0, 0, 3]
        after = session.message_count(frontier, aggregate, context)
        worker_of = context.fragment_worker[partition.owner]
        cross = worker_of[sources] != worker_of[destinations]
        assert after == (
            np.unique(destinations[cross]).size if aggregate
            else int(np.count_nonzero(cross))
        )
        assert after < before
        context.fragment_worker[:] = np.arange(4)


def test_a_superstep_threads_when_it_is_big_enough(monkeypatch):
    """The unforced rule. IT/wcc@8's first superstep (every vertex
    active, over a million out-edges) threads exactly when the process
    may run on two CPUs or more; TX/bfs@4 and the four long-tail cells
    of the ``tail-road`` benchmark workload never reach
    ``PARALLEL_MIN_EDGES`` and start no thread on any host."""
    from repro.bench.workloads import pick_source, prepare_graph

    def first_superstep():
        return repro.run(prepare_graph("IT", "wcc"), "wcc", num_gpus=8,
                         max_iterations=1).backend_stats

    on_this_host = first_superstep()
    assert (on_this_host is not None) == (repro.backend.usable_cpus() >= 2)
    monkeypatch.setattr(repro.backend, "usable_cpus", lambda: 1)
    assert first_superstep() is None
    monkeypatch.setattr(repro.backend, "usable_cpus", lambda: 2)
    stats = first_superstep()
    assert (stats["threaded_steps"], stats["workers"]) == (1, 2)
    for graph, algorithm, gpus in [("TX", "bfs", 4), ("USA", "sssp", 8),
                                   ("EU", "sssp", 8), ("WB", "bfs", 8)]:
        result = repro.run(prepare_graph(graph, algorithm), algorithm,
                           num_gpus=gpus, source=pick_source(graph))
        assert result.backend_stats is None, (graph, algorithm)
    assert no_backend_threads()
