"""Lifecycle: no shared-memory blocks or workers survive any exit path.

``/dev/shm`` segments are a classic CI leak: a run that raises
mid-iteration must still unlink every block and reap every worker.
The engine closes its session in a ``finally``; these tests inject
failures on both the parallel-merge and serial-fallback paths and
assert the contract, plus the ``atexit``-backstop registry stays empty
after clean runs.
"""

import multiprocessing
import time

import pytest

from repro.backend.shared import live_block_names
from repro.graph import datasets
from repro.hardware import dgx1
from repro.partition.partitioners import make_partition
from repro.runtime import BSPEngine

from repro.errors import EngineError, ReproError
from tests.backend.helpers import FailingMergeBFS, FailingStepBFS, die_at_spawn


def no_backend_workers():
    return not [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-shmem-")
    ]


@pytest.fixture()
def workload():
    graph = datasets.load("TX")
    partition = make_partition("random", graph, 2, seed=0)
    return graph, partition


def run_failing(workload, algorithm, backend):
    graph, partition = workload
    from repro.runtime.bsp import EngineOptions

    engine = BSPEngine(dgx1(2), name="bsp",
                       options=EngineOptions(backend=backend))
    with pytest.raises(RuntimeError, match="injected"):
        engine.run(graph, partition, algorithm, source=0)


def test_midrun_exception_releases_blocks_and_workers(workload):
    run_failing(workload, FailingMergeBFS(fail_at_iteration=3), "shmem")
    assert live_block_names() == ()
    assert no_backend_workers()


def test_serial_fallback_exception_releases_blocks(workload):
    # failure on the coordinator's serial-fallback step path
    run_failing(workload, FailingStepBFS(fail_at_iteration=3), "shmem")
    assert live_block_names() == ()
    assert no_backend_workers()


def test_shmem_without_an_exact_merge_starts_nothing(workload):
    """PageRank has no exact merge, so every superstep is the
    coordinator's serial one: ``shmem`` must not spawn a pool or map
    the graph for workers that would never get a task."""
    from repro.obs import Sink, Tracer
    from repro.runtime.bsp import EngineOptions

    seen = []

    class Probe(Sink):
        def emit(self, record):
            seen.append((multiprocessing.active_children(),
                         live_block_names()))

    graph, partition = workload
    engine = BSPEngine(dgx1(2), name="bsp", tracer=Tracer(sinks=[Probe()]),
                       options=EngineOptions(backend="shmem"))
    result = engine.run(graph, partition, "pr", max_iterations=5)
    assert len(seen) > 5  # probed inside the run, every superstep
    assert all(children == [] and blocks == ()
               for children, blocks in seen)
    stats = result.backend_stats
    assert stats["backend"] == "shmem"
    assert stats["parallel_step"] is False
    assert (stats["workers"], stats["tasks"]) == (0, 0)
    assert stats["startup_seconds"] == 0.0


def test_serial_backend_never_creates_blocks(workload):
    run_failing(workload, FailingStepBFS(fail_at_iteration=3), "serial")
    assert live_block_names() == ()


def test_session_close_is_idempotent(workload):
    graph, partition = workload
    from repro.algorithms import make_algorithm
    from repro.backend import make_backend
    from repro.runtime.scheduler import RunContext
    import numpy as np

    algorithm = make_algorithm("bfs")
    state = algorithm.init(graph, source=0)
    context = RunContext(
        graph=graph, partition=partition, timing=None,
        fragment_home=np.arange(2, dtype=np.int64),
        fragment_worker=np.arange(2, dtype=np.int64),
        algorithm_name="bfs",
    )
    session = make_backend("shmem").open(
        graph, partition, algorithm, state, context
    )
    assert live_block_names() != ()
    session.close(state)
    session.close(state)  # second close is a no-op
    assert live_block_names() == ()
    assert no_backend_workers()
    # values were copied out of the dying mapping and stay usable
    assert state.values[0] == 0.0


def test_a_worker_dead_at_spawn_fails_the_run_promptly(workload,
                                                       monkeypatch):
    """The coordinator polls worker exit codes while it waits, so a
    worker that dies before its ready handshake ends the run with a
    typed error naming it, not a wait for the 60 s startup deadline."""
    import repro.backend.shmem

    monkeypatch.setattr(repro.backend.shmem, "worker_main", die_at_spawn)
    graph, partition = workload
    from repro.runtime.bsp import EngineOptions

    engine = BSPEngine(dgx1(2), name="bsp",
                       options=EngineOptions(backend="shmem"))
    started = time.perf_counter()
    with pytest.raises(ReproError, match="exited with code 3") as raised:
        engine.run(graph, partition, "bfs", source=0)
    assert time.perf_counter() - started < 5.0
    assert isinstance(raised.value, EngineError)
    assert "startup" in str(raised.value)
    assert live_block_names() == ()
    assert no_backend_workers()
