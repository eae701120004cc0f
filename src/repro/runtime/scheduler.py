"""Scheduling interface between the BSP engine and stealing policies.

Each iteration, the engine hands the scheduler the *distributed
frontier* (one frontier per fragment, at its data home) and receives an
:class:`IterationPlan`: which worker processes which slice of which
fragment's frontier, which workers are in the communication group, and
what the decision itself cost. Every policy builds its plan with
:func:`realize_plan`, the one realization of a touched-edges matrix
as chunk rows. The engine prices the plan with the ground-truth timing
model and executes the algorithm step — so a plan can be slow, but
never wrong.

:class:`StaticScheduler` is the no-stealing policy every baseline BSP
system (and "GUM without stealing") uses: each fragment is processed by
the worker that hosts it, and everyone synchronizes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import accumulate
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from repro.errors import SolverError
from repro.graph.csr import CSRGraph
from repro.hardware.timing import TimingModel
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.partition.base import Partition
from repro.runtime.frontier import FragmentTable, Frontier
from repro.runtime.metrics import IterationRecord

if TYPE_CHECKING:  # chaos imports nothing from runtime, but keep it lazy
    from repro.chaos.controller import ChaosController, FaultEvent

__all__ = ["IterationPlan", "RunContext", "Scheduler", "StaticScheduler",
           "realize_plan", "select_vertices"]


@dataclass
class IterationPlan:
    """Complete work assignment for one superstep.

    The chunks are parallel lists of ints, one row per chunk (at most
    fragments x workers), in fragment-major order (worker ascending
    within a fragment). A row
    is one fragment's frontier slice on one worker: ``owner`` is the
    fragment whose memory holds the adjacency data (the ``i`` of the
    paper's ``c_ij``), ``worker`` the GPU running the kernel (the
    ``j``), and ``hub_edges`` of its ``edges`` are served from the
    worker's local hub cache and priced as local accesses. The slice
    is ``vertices[start:stop]`` of the owning fragment's sorted
    frontier, so ``stop - start`` vertices move when the row is
    stolen; quota-only rows (pull-mode work) have an empty span.
    """

    active_workers: List[int]
    owner: List[int] = field(default_factory=list)
    worker: List[int] = field(default_factory=list)
    edges: List[int] = field(default_factory=list)
    hub_edges: List[int] = field(default_factory=list)
    start: List[int] = field(default_factory=list)
    stop: List[int] = field(default_factory=list)
    decision_seconds: float = 0.0
    real_decision_seconds: float = 0.0
    fsteal_applied: bool = False
    osteal_group_size: Optional[int] = None
    stolen_edges: int = 0

    def stolen_rows(
        self, fragment_home: np.ndarray
    ) -> List[Tuple[int, int, int, int, int]]:
        """``(home, worker, edges, hub_edges, moved)`` of every row that
        runs away from its fragment's data home, ``moved`` being its
        ``stop - start`` vertices."""
        homes = fragment_home.tolist()
        return [
            (homes[owner], worker, edges, hub, stop - start)
            for owner, worker, edges, hub, start, stop in zip(
                self.owner, self.worker, self.edges, self.hub_edges,
                self.start, self.stop)
            if worker != homes[owner]
        ]


@dataclass
class RunContext:
    """Everything a scheduler may consult while planning.

    ``fragment_home`` maps fragment -> the GPU physically holding its
    data (fixed for the whole run); ``fragment_worker`` maps fragment
    -> the GPU currently *responsible* for it (OSteal rewrites this).

    ``tracer``/``metrics`` are the engine's observability hooks —
    schedulers record their decisions through them (null by default,
    so uninstrumented runs pay nothing).

    ``timing`` starts as the engine's ground-truth model but is
    *per-run*: fault injection swaps in a model of the degraded
    machine mid-run. ``chaos`` is the attached fault controller
    (``None`` on healthy runs) and ``dead_workers`` the GPUs evicted
    so far — schedulers must not assign work to them.
    """

    graph: CSRGraph
    partition: Partition
    timing: TimingModel
    fragment_home: np.ndarray
    fragment_worker: np.ndarray
    algorithm_name: str = ""
    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = NULL_METRICS
    chaos: "Optional[ChaosController]" = None
    dead_workers: Set[int] = field(default_factory=set)

    @property
    def num_workers(self) -> int:
        """Number of GPUs in the machine."""
        return self.timing.topology.num_gpus

    @property
    def live_workers(self) -> List[int]:
        """The GPUs not evicted so far, ascending."""
        return [w for w in range(self.num_workers)
                if w not in self.dead_workers]


def select_vertices(
    graph: CSRGraph, frontier: Frontier, x_row: np.ndarray
) -> List[Tuple[int, int, int, int]]:
    """Algorithm 1, lines 9-18: split one frontier by edge quotas.

    ``x_row[j]`` is the target number of edges worker ``j`` should
    process from this fragment. Vertices are assigned as consecutive
    runs (in vertex-id order) whose out-degree prefix sums best match
    the cumulative quotas; actual per-worker edge counts may deviate by
    at most one adjacency list, and the union is exactly the frontier.
    Returns one ``(worker, edges, start, stop)`` span per receiving
    worker, ascending: worker ``j`` processes
    ``frontier.vertices[start:stop]``.
    """
    x_row = np.asarray(x_row, dtype=np.int64).tolist()
    if frontier.size == 0:
        if sum(x_row) != 0:
            raise SolverError("quota assigned to an empty frontier")
        return []
    return _quota_spans(FragmentTable.of(graph, [frontier]), {0: x_row})[0]


def _quota_spans(
    table: FragmentTable, quotas: Dict[int, List[int]]
) -> Dict[int, List[Tuple[int, int, int, int]]]:
    """:func:`select_vertices` for many fragments of a table at once
    (``quotas``: fragment -> its row of ``X``): D is the table's one
    running edge count, and every fragment's cumulative quotas F,
    offset by the edges before the fragment, share one SortedSearch."""
    bounds, work = table.bounds, table.work
    bases = [0, *accumulate(work)]
    targets, receivers = [], {}
    for fragment, x_row in quotas.items():
        if sum(x_row) != work[fragment]:
            raise SolverError(f"quotas ({sum(x_row)}) do not match "
                              f"frontier edges ({work[fragment]})")
        receivers[fragment] = [j for j, quota in enumerate(x_row) if quota > 0]
        targets.extend(bases[fragment] + running for running, quota
                       in zip(accumulate(x_row), x_row) if quota > 0)
    prefix = table.edge_prefix()
    found = np.searchsorted(prefix, targets, side="left")
    hits = iter(zip(found.tolist(), prefix[found].tolist()))
    spans = {}
    for fragment, workers in receivers.items():
        low, base = bounds[fragment], bases[fragment]
        rows = spans[fragment] = []
        start = start_edges = 0
        for worker, (position, through) in zip(workers, hits):
            stop, stop_edges = position - low + 1, through - base
            if worker == workers[-1]:  # the last quota absorbs the rest
                stop, stop_edges = bounds[fragment + 1] - low, work[fragment]
            if stop > start:
                rows.append((worker, stop_edges - start_edges, start, stop))
            start, start_edges = stop, stop_edges
    return spans


def realize_plan(
    context: RunContext,
    fragment_frontiers: Sequence[Frontier],
    workloads: np.ndarray,
    quotas: Optional[np.ndarray] = None,
    hub_cache=None,
    **fields,
) -> IterationPlan:
    """Realize a touched-edges matrix as the plan's chunk columns.

    Without ``quotas`` every fragment with work is one row: its whole
    span on ``context.fragment_worker``. With them, fragment ``i``'s
    row of ``quotas`` is sliced by Algorithm 1 (:func:`select_vertices`,
    all fragments in one search) when the workload is the frontier's
    out-edges, else (pull-mode BFS) becomes quota-only rows with the
    empty span ``(0, 0)``. ``hub_cache`` (a ``hub_edges(graph,
    vertices)`` probe) is asked once per row away from its fragment's
    data home. ``fields`` are the other :class:`IterationPlan` fields.
    Fragments are read from the superstep's
    :class:`~repro.runtime.frontier.FragmentTable`.
    """
    graph = context.graph
    table = FragmentTable.of(graph, fragment_frontiers)
    bounds, vertices = table.bounds, table.vertices
    homes = context.fragment_home.tolist()
    current = context.fragment_worker.tolist()
    loads = workloads.tolist()
    rows_of = quotas.tolist() if quotas is not None else None
    sliced = {} if quotas is None else _quota_spans(table, {
        fragment: rows_of[fragment] for fragment, load in enumerate(loads)
        if bounds[fragment + 1] > bounds[fragment]
        and table.work[fragment] == load
    })
    rows = []
    for fragment, load in enumerate(loads):
        low, high = bounds[fragment], bounds[fragment + 1]
        # a fragment can carry work despite an empty frontier (pull-mode
        # engines scan the unvisited side), so gate on workload too
        if low == high and load == 0:
            continue
        if quotas is None:
            spans = [(current[fragment], load, 0, high - low)]
        elif fragment in sliced:
            spans = sliced[fragment]
        else:
            spans = [(worker, quota, 0, 0) for worker, quota
                     in enumerate(rows_of[fragment]) if quota > 0]
        for worker, edges, start, stop in spans:
            hub = 0
            if hub_cache is not None and worker != homes[fragment]:
                span = vertices[low + start: low + stop]
                hub = hub_cache.hub_edges(graph, span)
            rows.append((fragment, worker, edges, hub, start, stop))
    owner, worker, edges, hub_edges, start, stop = map(
        list, zip(*rows) if rows else [()] * 6)
    return IterationPlan(owner=owner, worker=worker, edges=edges,
                         hub_edges=hub_edges, start=start, stop=stop,
                         **fields)


class Scheduler(abc.ABC):
    """Policy deciding who processes what, each iteration."""

    name: str = "abstract"

    #: Per-decision explainability ledger of the current run (a
    #: ``repro.obs.ledger.Ledger``) for policies that record one; the
    #: engine copies it onto ``RunResult.ledger`` after ``finish_run``.
    ledger: Optional[object] = None

    def begin_run(self, context: RunContext) -> None:
        """Called once before the first iteration."""

    @abc.abstractmethod
    def plan(
        self,
        iteration: int,
        fragment_frontiers: Sequence[Frontier],
        workloads: np.ndarray,
        context: RunContext,
    ) -> IterationPlan:
        """Produce the work assignment for this iteration.

        ``workloads[i]`` is the paper's ``l_i``: active out-edges homed
        on fragment ``i``.
        """

    def observe(self, record: IterationRecord, context: RunContext) -> None:
        """Feedback after the engine priced and ran the iteration.

        The base implementation publishes the scheduler's own decision
        latency — host seconds spent inside :meth:`plan` — to the run's
        metrics registry, so every policy (static or stateful) shows up
        in the metrics snapshot with the same instruments.
        Stateful overrides should call ``super().observe(...)`` to keep
        emitting them.
        """
        metrics = context.metrics
        if metrics is not None and metrics.enabled:
            metrics.histogram("scheduler.decision_seconds").observe(
                record.real_decision_seconds
            )

    def on_fault(self, event: "FaultEvent", context: RunContext) -> None:
        """React to an injected fault before the iteration is planned.

        Called by the engine after it has applied the fault's machine
        consequences (``context.timing`` swap, ``fragment_worker``
        eviction, ``dead_workers`` update). Stateful policies rebuild
        whatever they derived from the old machine; the default is a
        no-op, which is correct for stateless schedulers.
        """

    def finish_run(self, context: RunContext) -> Optional[Dict[str, float]]:
        """Called once after the last iteration; optional summary stats.

        Stateful policies report run-level decision statistics here
        (e.g. the GUM arbitrator's plan-cache hit counters); the engine
        attaches the returned mapping to the run result.
        """
        return None


class StaticScheduler(Scheduler):
    """No stealing: each fragment is processed by its current worker.

    All workers join every synchronization round — the behaviour whose
    DLB and LT pathologies the paper's Figure 1 illustrates.
    """

    name = "static"

    def plan(
        self,
        iteration: int,
        fragment_frontiers: Sequence[Frontier],
        workloads: np.ndarray,
        context: RunContext,
    ) -> IterationPlan:
        """Produce this iteration's work assignment."""
        return realize_plan(context, fragment_frontiers, workloads,
                            active_workers=context.live_workers)
