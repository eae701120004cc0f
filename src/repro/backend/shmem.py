"""Process-parallel execution over shared-memory graph buffers.

One resident store, many workers — the coordinator maps the CSR arrays
(``indptr``/``indices``/``weights``), the ownership array, the vertex
value array, and a per-iteration frontier buffer into
:mod:`multiprocessing.shared_memory` blocks, spawns one persistent
worker process per virtual GPU (``spawn`` start method, workers live
for the whole run), and per iteration sends each worker a single
batch of small task descriptors — one per fragment it serves, reused
across iterations — over its queue. Workers
expand the adjacency once per task and return (a) the cross-worker
message statistics the coordinator's virtual-time pricing needs and
(b), for algorithms whose superstep is exactly mergeable
(``supports_fragment_step``), the partial relax aggregates the
coordinator folds into the global state.

Scheduling, pricing, chaos, and tracing stay entirely in the
coordinator: the backend parallelizes the *numerical* work of a
superstep, never the decisions — so virtual time and algorithm outputs
are bit-identical to the serial backend (the equivalence tests pin
this). Algorithms without an exact merge (floating-point *sums*, e.g.
PageRank) run the serial superstep in the coordinator, so the backend
opens a serial session for them — no worker process, no shared block;
only min-style propagation currently parallelizes.

Lifecycle: sessions release every shared block and worker on
``close()`` — called from the engine's ``finally`` — and a
module-level ``atexit`` backstop in :mod:`repro.backend.shared` covers
interpreter death, so CI can never leak ``/dev/shm`` segments.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.backend.base import ExecutionBackend, ExecutionSession
from repro.backend.serial import SerialSession
from repro.backend.shared import create_shared_array, release_shared_array
from repro.backend.worker import WorkerSpec, WorkerTask, worker_main
from repro.errors import EngineError
from repro.runtime.frontier import Frontier

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmState, GASAlgorithm
    from repro.graph.csr import CSRGraph
    from repro.partition.base import Partition
    from repro.runtime.scheduler import RunContext

__all__ = ["SharedMemoryBackend", "SharedMemorySession"]


def _idle_stats() -> dict:
    """The ``backend_stats`` block before any work was dispatched."""
    return {
        "backend": "shmem",
        "workers": 0,
        "parallel_step": False,
        "tasks": 0,
        "startup_seconds": 0.0,
        "dispatch_seconds": 0.0,
        "collect_seconds": 0.0,
    }


class _SerialFallbackSession(SerialSession):
    """``shmem`` for an algorithm with no exact merge: every superstep
    is the coordinator's serial one, so nothing is spawned or mapped."""

    def stats(self) -> dict:
        """The shmem stats block, with no workers and no tasks."""
        stats = _idle_stats()
        shard = super().stats()
        if shard is not None:
            stats["shard_cache"] = shard["shard_cache"]
        return stats


class SharedMemorySession(ExecutionSession):
    """One run's worker pool plus its shared mappings."""

    def __init__(
        self,
        graph: "CSRGraph",
        partition: "Partition",
        algorithm: "GASAlgorithm",
        state: "AlgorithmState",
        startup_timeout: float,
        task_timeout: float,
    ) -> None:
        self._graph = graph
        self._partition = partition
        self._startup_timeout = startup_timeout
        self._task_timeout = task_timeout
        self._blocks: list = []
        self._processes: list = []
        self._task_queues: list = []
        self._result_queue = None
        self._values_view: Optional[np.ndarray] = None
        self._frontier_view: Optional[np.ndarray] = None
        self._partials_view: Optional[np.ndarray] = None
        self._pending: Optional[List[int]] = None
        self._collected_iteration: Optional[int] = None
        # dispatch fast path: one reusable descriptor per fragment and
        # one reusable batch list per worker, so a superstep's dispatch
        # is field writes plus a single queue put per busy worker
        self._task_pool: List[WorkerTask] = [
            WorkerTask(iteration=-1, fragment=fragment, offset=0,
                       count=0, aggregate=True, relax=True)
            for fragment in range(partition.num_fragments)
        ]
        self._worker_batches: List[List[WorkerTask]] = [
            [] for _ in range(partition.num_fragments)
        ]
        self._partials: dict = {}
        self._closed = False
        self._stats = _idle_stats() | {
            "workers": partition.num_fragments,
            "parallel_step": True,
        }
        try:
            self._start(graph, partition, algorithm, state)
        except Exception:
            self.close(state)
            raise

    # ------------------------------------------------------------------
    def _share(self, array: np.ndarray):
        shm, view, spec = create_shared_array(array)
        self._blocks.append(shm)
        return view, spec

    def _start(self, graph, partition, algorithm, state) -> None:
        started = time.perf_counter()
        shard_path = getattr(graph, "source_path", None)
        indptr_spec = indices_spec = weights_spec = None
        if shard_path is None:
            __, indptr_spec = self._share(graph.indptr)
            __, indices_spec = self._share(graph.indices)
            if graph.weights is not None:
                __, weights_spec = self._share(graph.weights)
        # sharded graphs skip the |E|-sized shared blocks entirely:
        # each worker reopens the shard directory and pages what it
        # touches under its own resident budget
        __, owner_spec = self._share(partition.owner)
        self._frontier_view, frontier_spec = self._share(
            np.zeros(max(1, graph.num_vertices), dtype=np.int64)
        )
        # the coordinator's value array moves into shared memory so
        # workers observe each merged superstep; copied back out in
        # close() before the block is unlinked
        self._values_view, values_spec = self._share(state.values)
        state.values = self._values_view
        # one partial row per fragment: workers scatter their relax
        # minima here (inf = untouched) so the coordinator merges
        # columns without partials ever crossing a pickle boundary
        self._partials_view, partials_spec = self._share(
            np.full(
                (partition.num_fragments, graph.num_vertices), np.inf
            )
        )
        spec = WorkerSpec(
            indptr=indptr_spec,
            indices=indices_spec,
            weights=weights_spec,
            owner=owner_spec,
            frontier=frontier_spec,
            values=values_spec,
            partials=partials_spec,
            num_fragments=partition.num_fragments,
            directed=graph.directed,
            graph_name=graph.name,
            algorithm=algorithm,
            shard_path=None if shard_path is None else str(shard_path),
            shard_resident_bytes=int(
                getattr(graph, "resident_budget_bytes", 0) or 0
            ),
        )
        ctx = multiprocessing.get_context("spawn")
        self._result_queue = ctx.Queue()
        for worker_id in range(partition.num_fragments):
            task_queue = ctx.Queue()
            process = ctx.Process(
                target=worker_main,
                args=(worker_id, spec, task_queue, self._result_queue),
                daemon=True,
                name=f"repro-shmem-{worker_id}",
            )
            process.start()
            self._task_queues.append(task_queue)
            self._processes.append(process)
        deadline = time.perf_counter() + self._startup_timeout
        ready = 0
        while ready < len(self._processes):
            message = self._take_result(deadline, phase="startup")
            if message[0] == "ready":
                ready += 1
            else:
                raise EngineError(
                    "shmem worker returned an unexpected message during "
                    f"startup: {message[0]!r}"
                )
        self._stats["startup_seconds"] = time.perf_counter() - started

    def _take_result(self, deadline: float, phase: str):
        """One message off the result queue, or a timely EngineError —
        at the deadline, or on the first empty poll after any worker
        has exited (a worker that dies at spawn never reports)."""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise EngineError(
                    f"shmem backend timed out during {phase} "
                    f"(alive workers: "
                    f"{[p.is_alive() for p in self._processes]})"
                )
            try:
                message = self._result_queue.get(
                    timeout=min(remaining, 1.0)
                )
            except queue_mod.Empty:
                for worker, process in enumerate(self._processes):
                    if process.exitcode is not None:
                        raise EngineError(
                            f"shmem worker {worker} exited with code "
                            f"{process.exitcode} during {phase}"
                        ) from None
                continue
            if message[0] == "error":
                raise EngineError(
                    f"shmem worker {message[1]} failed:\n{message[2]}"
                )
            return message

    # ------------------------------------------------------------------
    def begin_iteration(
        self,
        iteration: int,
        fragment_frontiers: "Sequence[Frontier]",
        aggregate: bool,
    ) -> None:
        """Dispatch this iteration's fragment tasks to the workers.

        Called before the scheduler plans, so the workers' adjacency
        walks overlap with the coordinator's decision and pricing.
        """
        if self._pending:
            raise EngineError(
                "shmem backend: previous iteration was never collected"
            )
        started = time.perf_counter()
        num_workers = len(self._task_queues)
        offset = 0
        pending = []
        # reuse is safe here: begin_iteration refuses to run while the
        # previous iteration is uncollected, and collected results mean
        # the previous batch was already pickled and delivered
        for batch in self._worker_batches:
            batch.clear()
        for fragment, frontier in enumerate(fragment_frontiers):
            count = frontier.size
            if count == 0:
                continue
            self._frontier_view[offset: offset + count] = frontier.vertices
            task = self._task_pool[fragment]
            task.iteration = iteration
            task.offset = offset
            task.count = count
            task.aggregate = aggregate
            self._worker_batches[fragment % num_workers].append(task)
            offset += count
            pending.append(fragment)
        for worker, batch in enumerate(self._worker_batches):
            if batch:
                self._task_queues[worker].put(batch)
        self._pending = pending
        self._collected_iteration = None
        self._stats["tasks"] += len(pending)
        self._stats["dispatch_seconds"] += time.perf_counter() - started

    def _collect(self, iteration: int) -> dict:
        """Results of every dispatched fragment task (cached per iter)."""
        if self._collected_iteration == iteration:
            return self._partials
        if self._pending is None:
            raise EngineError(
                "shmem backend: iteration was never dispatched"
            )
        started = time.perf_counter()
        partials: dict = {}
        deadline = started + self._task_timeout
        remaining = set(self._pending)
        while remaining:
            message = self._take_result(deadline, phase="collect")
            kind, msg_iteration, fragment = message[0], message[1], message[2]
            if kind != "done" or msg_iteration != iteration:
                raise EngineError(
                    "shmem backend: out-of-order result "
                    f"({kind}, iteration {msg_iteration}) while collecting "
                    f"iteration {iteration}"
                )
            partials[fragment] = message[3:]
            remaining.discard(fragment)
        self._pending = None
        self._collected_iteration = iteration
        self._partials = partials
        self._stats["collect_seconds"] += time.perf_counter() - started
        return partials

    # ------------------------------------------------------------------
    def message_count(
        self,
        iteration: int,
        frontier: Frontier,
        aggregate: bool,
        context: "RunContext",
    ) -> int:
        """Cross-worker message count, merged from worker partials.

        Exactly the serial count: fragments partition the frontier's
        out-edges by source owner, so cross-edge counts add and the
        distinct-destination sets union. Workers report partials keyed
        by destination fragment; cross-ness is decided *here*, with
        the fragment→worker mapping the scheduler settled on after
        dispatch (OSteal may have rewritten it).
        """
        partials = self._collect(iteration)
        fragment_worker = context.fragment_worker
        total = 0
        cross_bits = []
        for fragment in sorted(partials):
            edge_counts, bits = partials[fragment]
            src_worker = fragment_worker[fragment]
            for dest in range(len(edge_counts)):
                if fragment_worker[dest] == src_worker:
                    continue
                if aggregate:
                    if bits is not None and edge_counts[dest]:
                        cross_bits.append(bits[dest])
                else:
                    total += int(edge_counts[dest])
        if aggregate:
            if not cross_bits:
                return 0
            union = np.bitwise_or.reduce(np.stack(cross_bits), axis=0)
            return int(np.unpackbits(union).sum())
        return total

    def step(
        self,
        iteration: int,
        algorithm: "GASAlgorithm",
        graph: "CSRGraph",
        state: "AlgorithmState",
    ) -> Frontier:
        """Merge the workers' partial rows into the global state."""
        partials = self._collect(iteration)
        if not partials:
            return Frontier.empty()
        # only rows dispatched *this* iteration: a fragment idle this
        # round keeps its stale row until its worker's next task resets
        # it, so the merge must never read it
        dispatched = sorted(partials)
        return algorithm.merge_fragment_rows(
            graph, state, self._partials_view[dispatched]
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Host-side execution statistics (coordination overhead)."""
        stats = dict(self._stats)
        cache_stats = getattr(self._graph, "cache_stats", None)
        if cache_stats is not None:
            stats["shard_cache"] = cache_stats()
        return stats

    def close(self, state: "Optional[AlgorithmState]" = None) -> None:
        """Stop workers and unlink every shared block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if (
            state is not None
            and self._values_view is not None
            and state.values is self._values_view
        ):
            # detach the run's values from the dying mapping
            state.values = np.array(self._values_view)
        # drop our mapped views so the mmaps close cleanly
        self._values_view = None
        self._frontier_view = None
        self._partials_view = None
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except Exception:
                pass
        for process in self._processes:
            process.join(timeout=5.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for task_queue in self._task_queues:
            try:
                task_queue.close()
                task_queue.cancel_join_thread()
            except Exception:
                pass
        if self._result_queue is not None:
            try:
                self._result_queue.close()
                self._result_queue.cancel_join_thread()
            except Exception:
                pass
        for shm in self._blocks:
            release_shared_array(shm)
        self._blocks.clear()


class SharedMemoryBackend(ExecutionBackend):
    """Factory spawning one worker process per virtual GPU per run."""

    name = "shmem"

    def __init__(self, task_timeout: float = 300.0) -> None:
        self._task_timeout = task_timeout

    def open(
        self,
        graph: "CSRGraph",
        partition: "Partition",
        algorithm: "GASAlgorithm",
        state: "AlgorithmState",
        context: "RunContext",
    ) -> ExecutionSession:
        """Map the graph, spawn workers, wait for the ready handshake —
        when the algorithm's superstep can be merged from fragments."""
        if not algorithm.supports_fragment_step:
            return _SerialFallbackSession(graph, partition)
        return SharedMemorySession(
            graph, partition, algorithm, state,
            startup_timeout=30.0 * max(1, partition.num_fragments),
            task_timeout=self._task_timeout,
        )
