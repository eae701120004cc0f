"""Where a superstep runs on the host: the coordinator's thread, or one
task per virtual GPU on a thread pool.

The BSP engine separates three concerns: the scheduler decides where
work runs in the *virtual* machine, the timing model prices that plan,
and the algorithm defines what is computed. A :class:`Session` adds the
host's side — which threads crunch one superstep's arrays — and, like
the paper's arbitrator, decides it every superstep from what it is
about to run instead of asking the user.

A min-propagation superstep (:class:`~repro.algorithms.minprop.
MinPropagation`: BFS, SSSP, WCC) is one relax of the frontier's
out-edges, so it splits exactly. On the thread path each fragment's
task reduces its own out-edges to ``(touched, minima)`` with
:meth:`~repro.algorithms.minprop.MinScatter.reduce`, reading the
coordinator's own ``graph``, ``partition.owner`` and ``state.values``
(nothing is copied), and the coordinator applies the concatenation of
every fragment's pair with the same
:meth:`~repro.algorithms.minprop.MinScatter.relax` the serial step
uses. Float64 ``min`` is associative, so values, the next frontier and
the message counts are bit-identical to the serial superstep, and
virtual time never depends on the path.

A superstep takes the thread path when all of these hold, and
otherwise runs the algorithm's serial step on the coordinator:

* the algorithm is a ``MinPropagation`` (PageRank's floating-point
  *sums*, delta-stepping's buckets and k-core's peeling are no
  min-relax);
* the frontier has at least :data:`PARALLEL_MIN_EDGES` out-edges;
* the process may run on two CPUs or more.

The engine drives one session per run with three calls per superstep::

    session.begin_iteration(table)  # after the split (a FragmentTable)
    session.message_count(frontier, aggregate, context)  # pricing
    session.step()                               # the algorithm superstep

and closes it in a ``finally``. The thread pool (one thread per usable
CPU, at most one per fragment) starts at the first threaded superstep,
so a run that never threads starts no thread.

Two facts keep the threads safe. A fragment has at most one task in
flight, so its reduce scratch is its own. Tasks only read ``values``,
which the coordinator writes in :meth:`Session.step` after every task
of the superstep was collected.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.algorithms.minprop import MinPropagation, MinScatter
from repro.graph.gather import distinct_vertices, gather_edges
from repro.runtime.frontier import FragmentTable, Frontier

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from repro.algorithms.base import AlgorithmState, GASAlgorithm
    from repro.graph.csr import CSRGraph
    from repro.partition.base import Partition
    from repro.runtime.scheduler import RunContext

__all__ = ["PARALLEL_MIN_EDGES", "Session", "count_messages"]

#: Frontier out-edges from which a min-propagation superstep takes the
#: thread path; below it a task round trip per fragment costs more than
#: the threads save (crossover table in docs/performance.md). A session
#: reads it when it opens. Tests force either path through it: ``0``
#: threads every eligible superstep, whatever the host's core count.
PARALLEL_MIN_EDGES = 1 << 19


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def count_messages(
    graph: "CSRGraph",
    owner: np.ndarray,
    worker: Optional[np.ndarray],
    frontier: Frontier,
    aggregate: bool,
    seen: np.ndarray,
) -> int:
    """Cross-worker message count from the memoized frontier gather.

    Both endpoints of every gathered edge (the gather's ``sources``
    and ``destinations``) are mapped vertex → fragment (``owner``) →
    worker (``worker``, narrowed to ``owner``'s dtype: a byte per edge
    up to 256 fragments) by indexing, never through a ``V``-long
    array, so a tail superstep costs its own edges. ``worker=None`` is
    the identity map (no OSteal fold, no dead worker): fragments are
    compared directly, with no worker lookup.
    Under ``aggregate`` the distinct remote destinations are counted by
    :func:`~repro.graph.gather.distinct_vertices`, the algorithm step's
    bitmap kernel (``seen`` is its reusable all-``False`` bitmap).
    """
    sources, destinations, __ = frontier.gather(graph)
    if destinations.size == 0:
        return 0
    home, away = owner[sources], owner[destinations]
    if worker is not None:
        worker = worker.astype(owner.dtype)
        home, away = worker[home], worker[away]
    cross = home != away
    if not aggregate:
        return int(np.count_nonzero(cross))
    # np.compress: ~3x faster than boolean-mask indexing here
    return int(distinct_vertices(
        np.compress(cross, destinations), seen.size, seen
    ).size)


class Session:
    """One run's host-side superstep path, chosen per superstep."""

    def __init__(
        self,
        graph: "CSRGraph",
        partition: "Partition",
        algorithm: "GASAlgorithm",
        state: "AlgorithmState",
    ) -> None:
        self._graph = graph
        self._partition = partition
        self._algorithm = algorithm
        self._state = state
        self._min_edges = PARALLEL_MIN_EDGES
        self._threadable = isinstance(algorithm, MinPropagation)
        #: distinct_vertices' reusable bitmap, one per run
        self._seen = np.zeros(graph.num_vertices, dtype=bool)
        #: (frontier, (aggregate, worker-map bytes), count), last call
        self._last_count: tuple = (None, None, 0)
        #: the worker-map bytes of the identity map (fragment i on GPU i)
        self._identity = np.arange(
            partition.num_fragments, dtype=np.int64
        ).tobytes()
        self._pool: "Optional[ThreadPoolExecutor]" = None
        self._scatters: list = []
        self._stats: dict = {}
        #: this superstep's tasks by fragment; ``None`` on the serial path
        self._futures: Optional[dict] = None
        self._results: Optional[dict] = None

    def _takes_threads(self, table: FragmentTable) -> bool:
        """The per-superstep rule of the module docstring."""
        if not self._threadable:
            return False
        if self._min_edges == 0:
            return True
        edges = sum(table.work)
        return edges >= self._min_edges and usable_cpus() >= 2

    def _start(self) -> None:
        """The pool and per-fragment scratch, at the first threaded
        superstep (a run that never threads never imports the
        executor, whose import alone costs milliseconds)."""
        from concurrent.futures import ThreadPoolExecutor

        started = time.perf_counter()
        num_fragments = self._partition.num_fragments
        self._scatters = [MinScatter(self._graph.num_vertices)
                          for _ in range(num_fragments)]
        # a thread per fragment beyond the usable CPUs buys no overlap
        # and holds its own allocator arena: 8 threads on 2 CPUs raised
        # dense-social's peak RSS by 20 MiB
        workers = min(num_fragments, usable_cpus())
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-shmem"
        )
        self._stats = {
            "backend": "shmem",
            "workers": workers,
            "threaded_steps": 0,
            "tasks": 0,
            "startup_seconds": time.perf_counter() - started,
            "dispatch_seconds": 0.0,
            "collect_seconds": 0.0,
        }

    def begin_iteration(self, table: FragmentTable) -> None:
        """Choose the superstep's path from its distributed frontier.

        Called after the frontier split, before planning and pricing:
        the thread path submits one task per non-empty fragment here,
        so the threads overlap with the scheduler's decision.
        """
        self._futures = self._results = None
        if not self._takes_threads(table):
            return
        if self._pool is None:
            self._start()
        started = time.perf_counter()
        values = self._state.values
        self._futures = {
            fragment: self._pool.submit(
                self._run_task, fragment, frontier.vertices, values
            )
            for fragment, frontier in enumerate(table)
            if frontier.size
        }
        stats = self._stats
        stats["threaded_steps"] += 1
        stats["tasks"] += len(self._futures)
        stats["dispatch_seconds"] += time.perf_counter() - started

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
        sources, destinations, weights = gather_edges(self._graph, vertices)
        edge_counts = np.bincount(self._partition.owner[destinations],
                                  minlength=len(self._scatters))
        touched, minima = self._scatters[fragment].reduce(
            destinations,
            self._algorithm.candidates(values, sources, weights),
        )
        return edge_counts, touched, minima

    def _collect(self) -> dict:
        """Every task's result by fragment, in fragment order (kept for
        the superstep); a task's exception is raised unchanged."""
        if self._results is None:
            started = time.perf_counter()
            self._results = {f: task.result()
                             for f, task in self._futures.items()}
            self._stats["collect_seconds"] += time.perf_counter() - started
        return self._results

    def message_count(
        self,
        frontier: Frontier,
        aggregate: bool,
        context: "RunContext",
    ) -> int:
        """Messages crossing worker boundaries this superstep: with
        ``aggregate`` (early aggregation) one per distinct remote
        destination, else one per cross edge.

        The serial path runs :func:`count_messages`, memoized on the
        last call (PageRank's full frontier asks the same question
        every round) by the frontier object and the worker map's
        *value*, which OSteal and a killed worker rewrite in place; the
        same bytes tell it when the map is the identity. The
        thread path folds the same count from its tasks: cross-edge
        counts add and remote distinct destinations union.
        """
        worker = context.fragment_worker
        if self._futures is None:
            key = (aggregate, worker.tobytes())
            last = self._last_count
            if last[0] is not frontier or last[1] != key:
                last = self._last_count = (frontier, key, count_messages(
                    self._graph, self._partition.owner,
                    None if key[1] == self._identity else worker,
                    frontier, aggregate, self._seen,
                ))
            return last[2]
        results = self._collect()
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

    def step(self) -> Frontier:
        """Run the superstep; return the next frontier."""
        graph, state = self._graph, self._state
        if self._futures is None:
            return self._algorithm.step(graph, state)
        results = self._collect().values()
        self._futures = self._results = None
        if not results:
            return Frontier.empty()
        return Frontier.from_sorted(MinScatter.of(graph, state.aux).relax(
            state.values,
            np.concatenate([touched for __, touched, __ in results]),
            np.concatenate([minima for __, __, minima in results]),
        ))

    def stats(self) -> Optional[dict]:
        """Host-side statistics: the thread path's coordination
        overhead once a superstep threaded, else ``None``."""
        return dict(self._stats) if self._stats else None

    def close(self) -> None:
        """Wait for in-flight tasks and join every thread (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
