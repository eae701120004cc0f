"""Worker-process entry point for the shared-memory backend.

Everything here is module-level and closure-free so the ``spawn``
start method can pickle the entry point and its arguments: the worker
receives only queue handles and a :class:`WorkerSpec` of plain data
(shared-array specs plus the algorithm instance), attaches the
coordinator's shared blocks, rebuilds a :class:`CSRGraph` *view* over
them (zero copy — ``CSRGraph`` keeps same-dtype contiguous arrays by
reference), and then loops on its task queue until it receives the
``None`` sentinel.

Per task the worker expands one fragment's frontier slice exactly
once and produces two results:

* message statistics *keyed by destination fragment* — per-fragment
  edge counts plus (under aggregation) a packed destination bitmap per
  fragment. The keying matters: which edges count as cross-worker
  depends on the fragment→worker mapping, and the scheduler (OSteal)
  may rewrite that mapping *after* these tasks were dispatched — so
  workers report mapping-independent partials and the coordinator
  folds in the post-plan mapping;
* the fragment's partial relax aggregates (when the algorithm supports
  fragment steps), scattered into the fragment's row of the shared
  partials mapping — bulky float arrays never cross a pickle boundary,
  only the small stats tuple travels over the result queue.

Any exception is reported as an ``("error", ...)`` tuple so the
coordinator can fail the run with the worker's traceback.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.backend.shared import SharedArraySpec, attach_shared_array
from repro.graph.csr import CSRGraph
from repro.graph.gather import gather_edges

__all__ = ["WorkerSpec", "WorkerTask", "worker_main"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs, in picklable form."""

    indptr: Optional[SharedArraySpec]
    indices: Optional[SharedArraySpec]
    weights: Optional[SharedArraySpec]
    owner: SharedArraySpec
    frontier: SharedArraySpec
    values: Optional[SharedArraySpec]
    partials: Optional[SharedArraySpec]
    num_fragments: int
    directed: bool
    graph_name: str
    algorithm: object  # GASAlgorithm instance (stateless, picklable)
    #: out-of-core path: instead of attaching shared CSR blocks, the
    #: worker reopens the sharded graph directory (its own mmap-backed
    #: shard cache — no |E|-sized shared block is ever created)
    shard_path: Optional[str] = None
    shard_resident_bytes: int = 0


@dataclass
class WorkerTask:
    """One fragment's work for one iteration.

    Mutable on purpose: the coordinator keeps one descriptor per
    fragment and rewrites it each iteration instead of allocating
    fresh ones (queue puts pickle a snapshot, so reuse is safe once
    the previous iteration's results are in).
    """

    iteration: int
    fragment: int
    offset: int  # slice of the shared frontier buffer
    count: int
    aggregate: bool  # early message aggregation on?
    relax: bool  # also compute fragment_step partials?


class _WorkerRuntime:
    """Attached shared state plus per-task compute."""

    def __init__(self, spec: WorkerSpec) -> None:
        self._blocks = []  # keep SharedMemory objects alive
        if spec.shard_path is not None:
            # local import: io_npz pulls in the partition module, which
            # spawned workers otherwise never need
            from repro.graph.io_npz import open_graph_sharded

            self._graph = open_graph_sharded(
                spec.shard_path,
                resident_bytes=spec.shard_resident_bytes or (256 << 20),
            )
        else:
            self._graph = CSRGraph(
                self._attach(spec.indptr),
                self._attach(spec.indices),
                weights=(
                    self._attach(spec.weights)
                    if spec.weights is not None else None
                ),
                directed=spec.directed,
                name=spec.graph_name,
            )
        self._owner = self._attach(spec.owner)
        self._frontier_buf = self._attach(spec.frontier)
        self._values = (
            self._attach(spec.values) if spec.values is not None else None
        )
        self._partials = (
            self._attach(spec.partials)
            if spec.partials is not None else None
        )
        self._num_fragments = spec.num_fragments
        self._algorithm = spec.algorithm
        #: the algorithm's reusable buffers, kept between tasks
        self._aux: dict = {}
        #: vertices this worker last scattered into each fragment's
        #: shared partial row; reset lazily at the next task so the
        #: coordinator reads settled rows between dispatches
        self._row_touched: Dict[int, np.ndarray] = {}

    def _attach(self, spec: SharedArraySpec) -> np.ndarray:
        shm, view = attach_shared_array(spec)
        self._blocks.append(shm)
        return view

    def run_task(self, task: WorkerTask) -> tuple:
        """Expand one fragment slice; scatter relax partials; return stats.

        Message stats are keyed by *destination fragment* — every
        source in this slice is homed on ``task.fragment``, so the
        coordinator can decide which destination fragments are remote
        under whatever fragment→worker mapping the scheduler settles
        on after these tasks were dispatched.
        """
        vertices = np.array(
            self._frontier_buf[task.offset: task.offset + task.count]
        )
        edges = gather_edges(self._graph, vertices)
        destinations = edges[1]
        num_fragments = self._num_fragments
        num_vertices = self._graph.num_vertices
        edge_counts = np.zeros(num_fragments, dtype=np.int64)
        dest_bits = None
        if destinations.size:
            dest_fragment = self._owner[destinations]
            edge_counts = np.bincount(
                dest_fragment, minlength=num_fragments
            ).astype(np.int64)
            if task.aggregate:
                # one packed destination bitmap per destination
                # fragment: |union| merges in the coordinator become
                # OR + popcount over a few KB instead of set unions
                # over pickled int64 arrays
                masks = np.zeros(
                    (num_fragments, num_vertices), dtype=bool
                )
                masks[dest_fragment, destinations] = True
                dest_bits = np.packbits(masks, axis=1)
        if task.relax and self._partials is not None:
            row = self._partials[task.fragment]
            previous = self._row_touched.get(task.fragment)
            if previous is not None and previous.size:
                row[previous] = np.inf
            touched, mins = self._algorithm.fragment_step(
                self._graph, self._values, vertices,
                aux=self._aux, edges=edges,
            )
            row[touched] = mins
            self._row_touched[task.fragment] = touched
        return ("done", task.iteration, task.fragment,
                edge_counts, dest_bits)


def worker_main(worker_id: int, spec: WorkerSpec,
                task_queue, result_queue) -> None:
    """Process target: attach, signal readiness, serve tasks until EOF."""
    try:
        runtime = _WorkerRuntime(spec)
        result_queue.put(("ready", worker_id))
    except Exception:
        result_queue.put(("error", worker_id, traceback.format_exc()))
        return
    while True:
        try:
            batch = task_queue.get()
            if batch is None:
                return
            # one queue message carries all of this worker's fragment
            # tasks for the iteration (dispatch batching)
            for task in batch:
                result_queue.put(runtime.run_task(task))
        except Exception:
            result_queue.put(("error", worker_id, traceback.format_exc()))
            return
