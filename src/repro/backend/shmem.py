"""Thread-parallel execution: one thread per virtual GPU.

In the paper the arbitrator plans and each GPU relaxes its own
fragment. This backend does the same on the host with one thread per
fragment, working on the coordinator's own ``graph``,
``partition.owner`` and ``state.values``: nothing is copied, mapped or
pickled, and ``shmem`` names the one address space they share.

A min-propagation superstep (:class:`~repro.algorithms.minprop.
MinPropagation`: BFS, SSSP, WCC) is one relax of the frontier's
out-edges, so it splits exactly. Each fragment's thread reduces its
own out-edges to ``(touched, minima)`` with
:meth:`~repro.algorithms.minprop.MinScatter.reduce`, and the
coordinator applies the concatenation of every fragment's pair with
the same :meth:`~repro.algorithms.minprop.MinScatter.relax` the serial
step uses. Float64 ``min`` is associative, so values and the next
frontier are bit-identical to the serial superstep. Any other
algorithm (PageRank's floating-point *sums*, delta-stepping's buckets,
k-core's peeling) runs the coordinator's serial step, and no thread is
started.

Each iteration's tasks are submitted before the scheduler plans, so
they overlap with the plan and pricing (NumPy releases the GIL for
most of a relax). Scheduling, pricing, chaos and tracing stay in the
coordinator, so virtual time is bit-identical to the serial backend.

Three facts keep the threads safe. A fragment has at most one task in
flight, so its reduce scratch is its own. Tasks only read ``values``,
which the coordinator writes in :meth:`step` after every task of the
iteration was collected. And an out-of-core graph's shard cache is not
thread-safe, so each fragment reads its own reopening of the shard
directory.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.algorithms.minprop import MinPropagation, MinScatter
from repro.backend.serial import SerialSession
from repro.errors import EngineError
from repro.graph.gather import distinct_vertices, gather_edges
from repro.runtime.frontier import Frontier

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmState, GASAlgorithm
    from repro.graph.csr import CSRGraph
    from repro.partition.base import Partition
    from repro.runtime.scheduler import RunContext

__all__ = ["SharedMemorySession"]


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


class SharedMemorySession(SerialSession):
    """One run's per-fragment threads over the coordinator's arrays —
    none when the algorithm is not a :class:`MinPropagation`, whose
    supersteps are then the serial session's."""

    def __init__(
        self,
        graph: "CSRGraph",
        partition: "Partition",
        algorithm: "GASAlgorithm",
        state: "AlgorithmState",
    ) -> None:
        super().__init__(graph, partition)
        self._stats = {
            "backend": "shmem",
            "workers": 0,
            "parallel_step": False,
            "tasks": 0,
            "startup_seconds": 0.0,
            "dispatch_seconds": 0.0,
            "collect_seconds": 0.0,
        }
        self._pool: Optional[ThreadPoolExecutor] = None
        if not isinstance(algorithm, MinPropagation):
            return
        started = time.perf_counter()
        num_fragments = partition.num_fragments
        self._algorithm = algorithm
        self._state = state
        self._graphs = _fragment_graphs(graph, num_fragments)
        self._scatters = [MinScatter(graph.num_vertices)
                          for _ in range(num_fragments)]
        self._futures: Optional[dict] = None
        self._results: dict = {}
        self._collected_iteration: Optional[int] = None
        self._pool = ThreadPoolExecutor(
            max_workers=num_fragments, thread_name_prefix="repro-shmem"
        )
        self._stats.update(
            workers=num_fragments, parallel_step=True,
            startup_seconds=time.perf_counter() - started,
        )

    def _run_task(
        self, fragment: int, vertices: np.ndarray, values: np.ndarray
    ) -> tuple:
        """Reduce one fragment's out-edges: ``(edge_counts, touched,
        minima)``.

        ``edge_counts`` is keyed by *destination fragment*, so the
        coordinator decides which are remote under the fragment→worker
        map the scheduler settles on after dispatch (OSteal folds and a
        killed worker rewrite it in place). ``touched`` — the distinct
        destinations — also feeds the aggregated message count.
        """
        sources, destinations, weights = gather_edges(
            self._graphs[fragment], vertices
        )
        edge_counts = np.bincount(self._partition.owner[destinations],
                                  minlength=len(self._graphs))
        touched, minima = self._scatters[fragment].reduce(
            destinations,
            self._algorithm.candidates(values, sources, weights),
        )
        return edge_counts, touched, minima

    def begin_iteration(
        self,
        iteration: int,
        fragment_frontiers: "Sequence[Frontier]",
        aggregate: bool,
    ) -> None:
        """Submit one task per non-empty fragment."""
        if self._pool is None:
            return
        if self._futures:
            raise EngineError(
                "shmem backend: previous iteration was never collected"
            )
        started = time.perf_counter()
        values = self._state.values
        self._futures = {
            fragment: self._pool.submit(
                self._run_task, fragment, frontier.vertices, values
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
        """Cross-worker message count, folded from the fragments' tasks.

        Exactly the serial count: fragments partition the frontier's
        out-edges by source owner, so cross-edge counts add and the
        remote distinct destinations union.
        """
        if self._pool is None:
            return super().message_count(iteration, frontier, aggregate,
                                         context)
        worker = context.fragment_worker
        results = self._collect(iteration)
        if not aggregate:
            return sum(int(counts[worker != worker[fragment]].sum())
                       for fragment, (counts, __, __) in results.items())
        owner = self._partition.owner
        remote = [
            touched[worker[owner[touched]] != worker[fragment]]
            for fragment, (__, touched, __) in results.items()
        ]
        if not remote:
            return 0
        return int(distinct_vertices(
            np.concatenate(remote), self._seen.size, self._seen
        ).size)

    def step(
        self,
        iteration: int,
        algorithm: "GASAlgorithm",
        graph: "CSRGraph",
        state: "AlgorithmState",
    ) -> Frontier:
        """Relax the values with every fragment's ``(touched, minima)``."""
        if self._pool is None:
            return super().step(iteration, algorithm, graph, state)
        results = self._collect(iteration).values()
        if not results:
            return Frontier.empty()
        return Frontier.from_sorted(MinScatter.of(graph, state.aux).relax(
            state.values,
            np.concatenate([touched for __, touched, __ in results]),
            np.concatenate([minima for __, __, minima in results]),
        ))

    def stats(self) -> dict:
        """Host-side execution statistics (coordination overhead)."""
        stats = dict(self._stats)
        shard = super().stats()
        if shard is not None:
            stats["shard_cache"] = shard["shard_cache"]
        return stats

    def close(self) -> None:
        """Wait for in-flight tasks and join every thread (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

