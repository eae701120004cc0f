"""Importable helpers for the backend tests.

These live in a real module (not a test file) so ``spawn`` worker
processes can unpickle instances by qualified name.
"""

import os

from repro.algorithms.bfs import BFS


def die_at_spawn(worker_id, spec, tasks, results):
    """A shmem worker entry point that exits before its handshake."""
    os._exit(3)


class FailingMergeBFS(BFS):
    """BFS whose coordinator-side merge raises after a few iterations.

    The workers' ``fragment_step`` is untouched, so the failure lands
    mid-iteration in the coordinator — exactly where the shmem
    session's cleanup contract has to hold.
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
