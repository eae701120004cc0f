"""Importable helpers for the backend tests and the backend perf gates."""

import multiprocessing
import threading

from repro.algorithms.bfs import BFS


def no_backend_threads() -> bool:
    """No ``repro-shmem`` thread and no child process is alive."""
    threads = [t for t in threading.enumerate()
               if t.name.startswith("repro-shmem")]
    return not threads and not multiprocessing.active_children()


class FailingMergeBFS(BFS):
    """BFS whose coordinator-side merge raises after a few iterations.

    The fragment threads' ``fragment_step`` is untouched, so the
    failure lands mid-iteration in the coordinator — exactly where the
    shmem session's cleanup contract has to hold.
    """

    name = "failing-bfs"

    def __init__(self, fail_at_iteration: int = 3) -> None:
        super().__init__()
        self.fail_at_iteration = fail_at_iteration
        self.merges = 0

    def merge_fragment_rows(self, graph, state, rows):
        self.merges += 1
        if state.iteration >= self.fail_at_iteration:
            raise RuntimeError("injected mid-iteration failure")
        return super().merge_fragment_rows(graph, state, rows)


class FailingFragmentStepBFS(BFS):
    """BFS whose ``fragment_step`` raises on a fragment thread.

    A BFS frontier at iteration ``k`` holds exactly the level-``k``
    vertices, so the thread reads the iteration off ``values``.
    """

    name = "failing-fragment-bfs"

    def __init__(self, fail_at_iteration: int = 3) -> None:
        super().__init__()
        self.fail_at_iteration = fail_at_iteration

    def fragment_step(self, graph, values, vertices, aux=None, edges=None):
        if values[vertices].max() >= self.fail_at_iteration:
            raise RuntimeError("injected fragment-step failure")
        return super().fragment_step(graph, values, vertices, aux=aux,
                                     edges=edges)


class FailingStepBFS(BFS):
    """BFS whose serial step raises — exercises the serial-fallback
    cleanup path of both backends."""

    name = "failing-step-bfs"

    supports_fragment_step = False

    def __init__(self, fail_at_iteration: int = 3) -> None:
        super().__init__()
        self.fail_at_iteration = fail_at_iteration

    def step(self, graph, state):
        if state.iteration >= self.fail_at_iteration:
            raise RuntimeError("injected mid-iteration failure")
        return super().step(graph, state)
