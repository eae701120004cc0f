"""Importable helpers for the backend tests and the backend perf gates."""

import multiprocessing
import threading

from repro.algorithms.base import GASAlgorithm
from repro.algorithms.bfs import BFS
from repro.algorithms.minprop import MinScatter


def no_backend_threads() -> bool:
    """No ``repro-shmem`` thread and no child process is alive."""
    threads = [t for t in threading.enumerate()
               if t.name.startswith("repro-shmem")]
    return not threads and not multiprocessing.active_children()


class _FailingRelax(MinScatter):
    """A :class:`MinScatter` whose ``relax`` raises on its n-th call."""

    __slots__ = ("_calls_left",)

    def __init__(self, num_vertices: int, fail_at_call: int) -> None:
        super().__init__(num_vertices)
        self._calls_left = fail_at_call

    def relax(self, values, destinations, candidates):
        self._calls_left -= 1
        if self._calls_left <= 0:
            raise RuntimeError("injected mid-iteration failure")
        return super().relax(values, destinations, candidates)


class FailingMergeBFS(BFS):
    """BFS whose coordinator-side relax raises after a few iterations.

    The fragment threads' reduces are untouched: under ``shmem`` the
    run's own :class:`MinScatter` (in ``state.aux``) only applies the
    merged minima, so the failure lands mid-iteration in the
    coordinator — exactly where the shmem session's cleanup contract
    has to hold.
    """

    name = "failing-bfs"

    def __init__(self, fail_at_iteration: int = 3) -> None:
        super().__init__()
        self.fail_at_iteration = fail_at_iteration

    def init(self, graph, **params):
        state = super().init(graph, **params)
        state.aux["scatter"] = _FailingRelax(
            graph.num_vertices, self.fail_at_iteration + 1
        )
        return state


class FailingFragmentStepBFS(BFS):
    """BFS whose ``candidates`` raise on a fragment thread.

    A BFS frontier at iteration ``k`` holds exactly the level-``k``
    vertices, so the thread reads the iteration off ``values``.
    """

    name = "failing-fragment-bfs"

    def __init__(self, fail_at_iteration: int = 3) -> None:
        super().__init__()
        self.fail_at_iteration = fail_at_iteration

    def candidates(self, values, sources, weights):
        if values[sources].max() >= self.fail_at_iteration:
            raise RuntimeError("injected fragment-step failure")
        return super().candidates(values, sources, weights)


class FailingStepBFS(GASAlgorithm):
    """BFS by delegation, whose step raises. Not a
    :class:`~repro.algorithms.minprop.MinPropagation`, so both backends
    run its step on the coordinator — the serial path's cleanup."""

    name = "failing-step-bfs"

    def __init__(self, fail_at_iteration: int = 3) -> None:
        self.fail_at_iteration = fail_at_iteration
        self._bfs = BFS()

    def init(self, graph, **params):
        return self._bfs.init(graph, **params)

    def step(self, graph, state):
        if state.iteration >= self.fail_at_iteration:
            raise RuntimeError("injected mid-iteration failure")
        return self._bfs.step(graph, state)
