"""Serial vs shmem: bit-identical outputs and virtual time.

The execution backend is a host-resource decision — *which* threads
crunch the arrays — and must never leak into results. These tests run
the same workload under both backends (the shmem side really runs one
thread per fragment over the coordinator's arrays) and require the
algorithm values, the virtual-time totals, and every per-iteration
virtual wall clock to match exactly.
"""

import pathlib
import sys

import numpy as np
import pytest

import repro
from repro.chaos import ChaosController, ChaosScenario
from repro.errors import EngineError
from repro.graph import datasets
from tests.backend.helpers import no_backend_threads

KILL_WORKER = (pathlib.Path(__file__).resolve().parents[2]
               / "benchmarks" / "scenarios" / "kill-worker.json")


def run_pair(algorithm, engine="gum", num_gpus=4, chaos=None, **params):
    """The same run under both backends; ``chaos`` is a scenario path,
    loaded into a fresh controller for each run."""
    graph = datasets.load("TX")
    results = []
    for backend in ("serial", "shmem"):
        if chaos is not None:
            params["chaos"] = ChaosController(ChaosScenario.from_file(chaos))
        results.append(repro.run(graph, algorithm, engine=engine,
                                 num_gpus=num_gpus, backend=backend,
                                 **params))
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
    assert stats["parallel_step"] is True
    assert stats["workers"] == 4
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
    assert shmem.backend_stats["parallel_step"] is True


@pytest.mark.parametrize("algorithm,params", [
    ("bfs", {"source": 0}),
    ("sssp", {"source": 0}),
    ("wcc", {}),
])
def test_two_node_topology_bit_identical(algorithm, params):
    serial, shmem = run_pair(algorithm, topology="nodes=2x2", **params)
    assert_equivalent(serial, shmem)
    assert shmem.backend_stats["workers"] == 4


@pytest.mark.parametrize("algorithm,params", [
    ("sssp", {"source": 0}),
    ("wcc", {}),
])
def test_eight_threads_under_a_short_switch_interval(algorithm, params):
    """More threads than cores, switching every microsecond: a task
    that wrote another fragment's row or buffers, or read values the
    coordinator was still merging, would change a value or a count."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serial, shmem = run_pair(algorithm, num_gpus=8, **params)
    finally:
        sys.setswitchinterval(interval)
    assert_equivalent(serial, shmem)
    assert shmem.backend_stats["workers"] == 8


def test_serial_fallback_algorithm_bit_identical():
    # float-sum aggregation (PageRank) has no exact merge: the shmem
    # session must fall back to the coordinator's serial superstep
    serial, shmem = run_pair("pr", num_gpus=2)
    assert_equivalent(serial, shmem)
    assert shmem.backend_stats["parallel_step"] is False
    assert shmem.backend_stats["tasks"] == 0


@pytest.mark.parametrize("algorithm,params", [
    ("dsssp", {"source": 0}),
    ("kcore", {"k": 3}),
    ("dpr", {}),
])
def test_serial_step_algorithms_start_no_thread(algorithm, params):
    """Delta-stepping's buckets, k-core's peeling and delta-PageRank's
    sums are no min-relax: shmem runs their serial step and no
    ``repro-shmem`` thread exists at any superstep of either run."""
    from repro.obs import Sink, Tracer

    seen = []

    class Probe(Sink):
        def emit(self, record):
            seen.append(no_backend_threads())

    serial, shmem = run_pair(algorithm, tracer=Tracer(sinks=[Probe()]),
                             **params)
    assert_equivalent(serial, shmem)
    assert len(seen) > serial.num_iterations and all(seen)
    stats = shmem.backend_stats
    assert stats["parallel_step"] is False
    assert (stats["workers"], stats["tasks"]) == (0, 0)


def test_plain_bsp_engine_bit_identical():
    serial, shmem = run_pair("bfs", engine="bsp", num_gpus=2, source=0)
    assert_equivalent(serial, shmem)


def test_groute_rejects_non_serial_backend():
    graph = datasets.load("TX")
    with pytest.raises(EngineError, match="BSP-style"):
        repro.run(graph, "wcc", engine="groute", num_gpus=2,
                  backend="shmem")


def test_unknown_backend_rejected():
    graph = datasets.load("TX")
    with pytest.raises(EngineError, match="unknown execution backend"):
        repro.run(graph, "bfs", backend="cuda", source=0)


def test_serial_message_count_equals_the_plain_count():
    """The bitmap kernel and the per-endpoint worker lookup count what
    a ``V``-long worker-of-vertex array and ``np.unique`` count."""
    from repro.backend.serial import SerialSession
    from repro.partition import random_partition
    from repro.runtime import Frontier
    from repro.runtime.scheduler import RunContext

    graph = datasets.load("TX")
    partition = random_partition(graph, 4, seed=0)
    session = SerialSession(graph, partition)
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
                0, frontier, False, context
            ) == int(np.count_nonzero(cross))
            assert session.message_count(
                0, frontier, True, context
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
        before = session.message_count(0, frontier, aggregate, context)
        context.fragment_worker[:] = [0, 0, 0, 3]
        after = session.message_count(1, frontier, aggregate, context)
        worker_of = context.fragment_worker[partition.owner]
        cross = worker_of[sources] != worker_of[destinations]
        assert after == (
            np.unique(destinations[cross]).size if aggregate
            else int(np.count_nonzero(cross))
        )
        assert after < before
        context.fragment_worker[:] = np.arange(4)


def test_engine_rejects_unknown_backend_at_construction():
    """The name is resolved when the engine is built, before any run."""
    from repro.hardware import dgx1
    from repro.runtime import BSPEngine, EngineOptions

    with pytest.raises(EngineError, match="unknown execution backend"):
        BSPEngine(dgx1(2), options=EngineOptions(backend="cuda"))
