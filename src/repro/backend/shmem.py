"""Thread-parallel execution: one thread per virtual GPU.

In the paper the arbitrator plans and each GPU relaxes its own
fragment. This backend does the same on the host with one thread per
fragment, working on the coordinator's own ``graph``,
``partition.owner`` and ``state.values``: nothing is copied, mapped or
pickled, and ``shmem`` names the one address space they share. Each
iteration's tasks are submitted before the scheduler plans, so they
overlap with the plan and pricing (NumPy releases the GIL for most of
a relax). Scheduling, pricing, chaos and tracing stay in the
coordinator, so virtual time and outputs are bit-identical to the
serial backend. Algorithms without an exact merge (floating-point
*sums*, e.g. PageRank) get a serial session and start no thread.

Three facts keep the threads safe. A fragment has at most one task in
flight, so its ``aux`` buffers and its partial row are its own. Tasks
only read ``values``, which the coordinator writes in :meth:`step`
after every task of the iteration was collected. And an out-of-core
graph's shard cache is not thread-safe, so each fragment reads its own
reopening of the shard directory.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.backend.base import ExecutionBackend, ExecutionSession
from repro.backend.serial import SerialSession
from repro.errors import EngineError
from repro.graph.gather import gather_edges
from repro.runtime.frontier import Frontier

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmState, GASAlgorithm
    from repro.graph.csr import CSRGraph
    from repro.partition.base import Partition
    from repro.runtime.scheduler import RunContext

__all__ = ["SharedMemoryBackend", "SharedMemorySession"]

#: the ``backend_stats`` block before any work was dispatched
_IDLE_STATS = {
    "backend": "shmem",
    "workers": 0,
    "parallel_step": False,
    "tasks": 0,
    "startup_seconds": 0.0,
    "dispatch_seconds": 0.0,
    "collect_seconds": 0.0,
}


def _fragment_graphs(graph: "CSRGraph", num_fragments: int) -> list:
    """The graph each fragment's task reads: the shared in-core graph,
    or one reopening per fragment of a sharded graph's directory under
    the coordinator's resident budget."""
    if getattr(graph, "cache_stats", None) is None:
        return [graph] * num_fragments
    if graph.source_path is None:
        raise EngineError("shmem backend: a sharded graph must come "
                          "from open_graph_sharded")
    from repro.graph.io_npz import open_graph_sharded

    return [
        open_graph_sharded(graph.source_path,
                           resident_bytes=graph.resident_budget_bytes)
        for _ in range(num_fragments)
    ]


class _SerialFallbackSession(SerialSession):
    """``shmem`` for an algorithm with no exact merge: every superstep
    is the coordinator's serial one, so no thread is started."""

    def stats(self) -> dict:
        """The shmem stats block, with no workers and no tasks."""
        stats = dict(_IDLE_STATS)
        shard = super().stats()
        if shard is not None:
            stats["shard_cache"] = shard["shard_cache"]
        return stats


class SharedMemorySession(ExecutionSession):
    """One run's per-fragment threads over the coordinator's arrays."""

    def __init__(
        self,
        graph: "CSRGraph",
        partition: "Partition",
        algorithm: "GASAlgorithm",
        state: "AlgorithmState",
    ) -> None:
        started = time.perf_counter()
        num_fragments = partition.num_fragments
        self._graph = graph
        self._owner = partition.owner
        self._algorithm = algorithm
        self._state = state
        self._graphs = _fragment_graphs(graph, num_fragments)
        #: each fragment's reusable algorithm buffers
        self._aux = [{} for _ in range(num_fragments)]
        #: one partial row per fragment (inf = untouched); each task
        #: first resets what its fragment's previous task scattered
        self._partials = np.full((num_fragments, graph.num_vertices),
                                 np.inf)
        self._row_touched = [np.empty(0, dtype=np.int64)] * num_fragments
        self._futures: Optional[dict] = None
        self._results: dict = {}
        self._collected_iteration: Optional[int] = None
        self._pool = ThreadPoolExecutor(
            max_workers=num_fragments, thread_name_prefix="repro-shmem"
        )
        self._stats = _IDLE_STATS | {
            "workers": num_fragments,
            "parallel_step": True,
            "startup_seconds": time.perf_counter() - started,
        }

    def _run_task(
        self,
        fragment: int,
        vertices: np.ndarray,
        values: np.ndarray,
        aggregate: bool,
    ) -> tuple:
        """Expand one fragment's frontier and scatter its relax minima.

        Returns ``(edge_counts, dest_bits)`` keyed by *destination
        fragment*, so the coordinator decides which are remote under
        the fragment→worker map the scheduler settles on after dispatch
        (OSteal folds and a killed worker rewrite it in place).
        """
        graph = self._graphs[fragment]
        num_fragments = len(self._graphs)
        edges = gather_edges(graph, vertices)
        destinations = edges[1]
        edge_counts = np.zeros(num_fragments, dtype=np.int64)
        dest_bits = None
        if destinations.size:
            dest_fragment = self._owner[destinations]
            edge_counts = np.bincount(dest_fragment,
                                      minlength=num_fragments)
            if aggregate:
                # one packed destination bitmap per destination
                # fragment: the coordinator's |union| is OR + popcount
                masks = np.zeros((num_fragments, graph.num_vertices), bool)
                masks[dest_fragment, destinations] = True
                dest_bits = np.packbits(masks, axis=1)
        row = self._partials[fragment]
        row[self._row_touched[fragment]] = np.inf
        touched, mins = self._algorithm.fragment_step(
            graph, values, vertices, aux=self._aux[fragment], edges=edges,
        )
        row[touched] = mins
        self._row_touched[fragment] = touched
        return edge_counts, dest_bits

    def begin_iteration(
        self,
        iteration: int,
        fragment_frontiers: "Sequence[Frontier]",
        aggregate: bool,
    ) -> None:
        """Submit one task per non-empty fragment."""
        if self._futures:
            raise EngineError(
                "shmem backend: previous iteration was never collected"
            )
        started = time.perf_counter()
        values = self._state.values
        self._futures = {
            fragment: self._pool.submit(
                self._run_task, fragment, frontier.vertices, values,
                aggregate,
            )
            for fragment, frontier in enumerate(fragment_frontiers)
            if frontier.size
        }
        self._collected_iteration = None
        self._stats["tasks"] += len(self._futures)
        self._stats["dispatch_seconds"] += time.perf_counter() - started

    def _collect(self, iteration: int) -> dict:
        """Every dispatched task's result by fragment, in fragment order
        (cached per iteration); a task's exception is raised unchanged."""
        if self._collected_iteration == iteration:
            return self._results
        if self._futures is None:
            raise EngineError("shmem backend: iteration was never dispatched")
        started = time.perf_counter()
        futures, self._futures = self._futures, None
        self._results = {f: task.result() for f, task in futures.items()}
        self._collected_iteration = iteration
        self._stats["collect_seconds"] += time.perf_counter() - started
        return self._results

    def message_count(
        self,
        iteration: int,
        frontier: Frontier,
        aggregate: bool,
        context: "RunContext",
    ) -> int:
        """Cross-worker message count, folded from fragment partials.

        Exactly the serial count: fragments partition the frontier's
        out-edges by source owner, so cross-edge counts add and the
        distinct-destination sets union.
        """
        worker = context.fragment_worker
        total, cross_bits = 0, []
        partials = self._collect(iteration)
        for fragment, (edge_counts, bits) in partials.items():
            remote = np.flatnonzero(worker != worker[fragment])
            if aggregate:
                cross_bits.extend(bits[dest] for dest in remote
                                  if edge_counts[dest])
            else:
                total += int(edge_counts[remote].sum())
        if not aggregate or not cross_bits:
            return total
        union = np.bitwise_or.reduce(np.stack(cross_bits), axis=0)
        return int(np.unpackbits(union).sum())

    def step(
        self,
        iteration: int,
        algorithm: "GASAlgorithm",
        graph: "CSRGraph",
        state: "AlgorithmState",
    ) -> Frontier:
        """Merge the fragments' partial rows into the global state."""
        partials = self._collect(iteration)
        if not partials:
            return Frontier.empty()
        # only rows dispatched *this* iteration: an idle fragment keeps
        # its stale row until its next task resets it
        return algorithm.merge_fragment_rows(
            graph, state, self._partials[list(partials)]
        )

    def stats(self) -> dict:
        """Host-side execution statistics (coordination overhead)."""
        stats = dict(self._stats)
        cache_stats = getattr(self._graph, "cache_stats", None)
        if cache_stats is not None:
            stats["shard_cache"] = cache_stats()
        return stats

    def close(self) -> None:
        """Wait for in-flight tasks and join every thread (idempotent)."""
        self._pool.shutdown(wait=True, cancel_futures=True)


class SharedMemoryBackend(ExecutionBackend):
    """Factory starting one thread per virtual GPU per run."""

    name = "shmem"

    def open(
        self,
        graph: "CSRGraph",
        partition: "Partition",
        algorithm: "GASAlgorithm",
        state: "AlgorithmState",
        context: "RunContext",
    ) -> ExecutionSession:
        """Start the fragment threads — when the algorithm's superstep
        can be merged from fragments."""
        if not algorithm.supports_fragment_step:
            return _SerialFallbackSession(graph, partition)
        return SharedMemorySession(graph, partition, algorithm, state)
