"""Scheduling interface between the BSP engine and stealing policies.

Each iteration, the engine hands the scheduler the *distributed
frontier* (one frontier per fragment, at its data home) and receives an
:class:`IterationPlan`: which worker processes which slice of which
fragment's frontier, which workers are in the communication group, and
what the decision itself cost. The engine prices the plan with the
ground-truth timing model and executes the algorithm step — so a plan
can be slow, but never wrong.

:class:`StaticScheduler` is the no-stealing policy every baseline BSP
system (and "GUM without stealing") uses: each fragment is processed by
the worker that hosts it, and everyone synchronizes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.graph.csr import CSRGraph
from repro.hardware.timing import TimingModel
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.partition.base import Partition
from repro.runtime.frontier import Frontier
from repro.runtime.metrics import IterationRecord

if TYPE_CHECKING:  # chaos imports nothing from runtime, but keep it lazy
    from repro.chaos.controller import ChaosController, FaultEvent

__all__ = ["WorkChunk", "IterationPlan", "RunContext", "Scheduler",
           "StaticScheduler"]


@dataclass
class WorkChunk:
    """A unit of assigned work: one fragment's frontier slice on one worker.

    ``owner`` is the fragment id whose memory holds the adjacency data
    (the ``i`` of the paper's ``c_ij``); ``worker`` is the GPU running
    the kernel (the ``j``). ``hub_edges`` of the total are served from
    the worker's local hub cache and priced as local accesses.
    """

    owner: int
    worker: int
    vertices: np.ndarray
    edges: int
    hub_edges: int = 0


@dataclass
class IterationPlan:
    """Complete work assignment for one superstep."""

    chunks: List[WorkChunk]
    active_workers: List[int]
    decision_seconds: float = 0.0
    real_decision_seconds: float = 0.0
    fsteal_applied: bool = False
    osteal_group_size: Optional[int] = None
    stolen_edges: int = 0
    migrated_vertices: int = 0


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
        in the live telemetry stream with the same instruments.
        Stateful overrides should call ``super().observe(...)`` to keep
        emitting them.
        """
        metrics = context.metrics
        if metrics is not None and metrics.enabled:
            metrics.histogram(
                "scheduler.decision_seconds",
                "host seconds per plan() decision",
            ).observe(record.real_decision_seconds)

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
        # a fragment can carry work despite an empty frontier (pull-mode
        # engines scan the unvisited side), so gate on workload too
        chunks = [
            WorkChunk(
                owner=fragment,
                worker=int(context.fragment_worker[fragment]),
                vertices=frontier.vertices,
                edges=int(workloads[fragment]),
            )
            for fragment, frontier in enumerate(fragment_frontiers)
            if frontier or workloads[fragment] > 0
        ]
        return IterationPlan(
            chunks=chunks,
            active_workers=[w for w in range(context.num_workers)
                            if w not in context.dead_workers],
        )
