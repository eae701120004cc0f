"""Lifecycle: no session thread or child process survives any exit path.

A run that raises mid-iteration — in the coordinator's merge, on a
fragment thread, or on the serial path — must still stop every thread
the session started. The engine closes its session in a
``finally``; these tests inject failures on each path and assert the
contract.
"""

import pytest

from repro.graph import datasets
from repro.hardware import dgx1
from repro.partition.partitioners import make_partition
from repro.runtime import BSPEngine

from tests.backend.helpers import (
    FailingFragmentStepBFS,
    FailingMergeBFS,
    FailingStepBFS,
    forced_path,
    no_backend_threads,
)


@pytest.fixture()
def workload():
    graph = datasets.load("TX")
    partition = make_partition("random", graph, 2, seed=0)
    return graph, partition


def run_failing(workload, algorithm, threads):
    graph, partition = workload
    engine = BSPEngine(dgx1(2), name="bsp")
    with forced_path(threads), pytest.raises(
        RuntimeError, match="injected"
    ) as raised:
        engine.run(graph, partition, algorithm, source=0)
    return raised.value


def test_midrun_exception_releases_blocks_and_workers(workload):
    run_failing(workload, FailingMergeBFS(fail_at_iteration=3), True)
    assert no_backend_threads()


def test_a_failing_fragment_step_raises_its_own_error(workload):
    """A task's exception comes out of the run unchanged — the same
    ``RuntimeError`` the serial step would raise, not a wrapper."""
    error = run_failing(
        workload, FailingFragmentStepBFS(fail_at_iteration=3), True
    )
    assert type(error) is RuntimeError
    assert str(error) == "injected fragment-step failure"
    assert no_backend_threads()


def test_serial_fallback_exception_releases_blocks(workload):
    # failure on the coordinator's serial step, thread path forced
    run_failing(workload, FailingStepBFS(fail_at_iteration=3), True)
    assert no_backend_threads()


def test_shmem_without_an_exact_merge_starts_nothing(workload):
    """PageRank has no exact merge, so every superstep is the
    coordinator's serial one: a forced thread path must not start
    threads that would never get a task."""
    from repro.obs import Sink, Tracer

    seen = []

    class Probe(Sink):
        def emit(self, record):
            seen.append(no_backend_threads())

    graph, partition = workload
    engine = BSPEngine(dgx1(2), name="bsp", tracer=Tracer(sinks=[Probe()]))
    with forced_path(True):
        result = engine.run(graph, partition, "pr", max_iterations=5)
    assert len(seen) > 5  # probed inside the run, every superstep
    assert all(seen)
    assert result.backend_stats is None


def test_serial_backend_never_creates_blocks(workload):
    run_failing(workload, FailingMergeBFS(fail_at_iteration=3), False)
    assert no_backend_threads()


def test_session_close_is_idempotent(workload):
    graph, partition = workload
    from repro.algorithms import make_algorithm
    from repro.backend import Session

    algorithm = make_algorithm("bfs")
    state = algorithm.init(graph, source=0)
    with forced_path(True):
        session = Session(graph, partition, algorithm, state)
    assert no_backend_threads()  # the pool starts with a threaded step
    session.begin_iteration(
        state.frontier.split_by_owner(partition.owner, 2, graph)
    )
    session.step()
    assert not no_backend_threads()
    session.close()
    session.close()  # second close is a no-op
    assert no_backend_threads()
    # the run's values are the coordinator's own array throughout
    assert state.values[0] == 0.0
