"""The BSP engine: executes GAS algorithms and charges virtual time.

One :meth:`BSPEngine.run` call plays the role of the paper's Figure 5
workflow: partition-resident fragments, a coordinator that synchronizes
workers each superstep, a pluggable *stealing arbitrator* (the
:class:`~repro.runtime.scheduler.Scheduler`), and per-iteration timing
records.

The engine guarantees a strict separation the paper relies on and our
metamorphic tests verify: the scheduler affects only *where* work runs
(and therefore time), never *what* is computed — algorithm steps are
executed on the global state regardless of the plan.

Timing of one iteration (see DESIGN.md §5 for constants)::

    busy_j   = sum over chunks of worker j of
                 edges * g*(chunk features)          # compute
               + (edges - hub) * comm(home_i, j)     # remote/local access
               + hub * comm(j, j)                    # hub-cache hits
               + kernel launch per chunk
               + frontier-status migration for stolen chunks
    critical = max over active workers of busy_j
    wall     = critical + serialization + sync(m) + decision overhead

Bucket attribution sums exactly to the wall time: ``compute`` and
``communication`` split the critical path by the active workers' mean
compute/comm/stall shares (stall counts as communication, as in the
paper's breakdown), and the rest go to their own buckets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro import config
from repro.errors import DegradedModeError, EngineError
from repro.graph.csr import CSRGraph
from repro.hardware.spec import MachineSpec
from repro.hardware.timing import TimingModel
from repro.hardware.topology import Topology
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.partition.base import Partition
from repro.runtime.envelope import RunEnvelope
from repro.runtime.frontier import FragmentTable, Frontier
from repro.runtime.metrics import IterationRecord, RunResult, TimeBreakdown
from repro.runtime.scheduler import (
    IterationPlan,
    RunContext,
    Scheduler,
    StaticScheduler,
)

if TYPE_CHECKING:  # avoid a runtime<->algorithms import cycle
    from repro.algorithms.base import GASAlgorithm
    from repro.chaos.controller import ChaosController, FaultEvent

__all__ = ["EngineOptions", "BSPEngine"]

#: Pull-mode threshold divisor of direction-optimized BFS: an
#: iteration pulls when the frontier's out-edges exceed ``|E| / 8``.
BFS_ALPHA = 8.0

#: Session stat -> help of its ``backend.<stat>`` gauge.
_BACKEND_GAUGES = (
    ("workers", "worker threads driven by the execution backend"),
    ("tasks", "work-chunk tasks dispatched to backend workers"),
    ("startup_seconds", "host seconds starting the backend thread pool"),
    ("dispatch_seconds", "host seconds handing tasks to backend workers"),
    ("collect_seconds", "host seconds folding backend worker results"),
)

#: Global-to-local vertex id translation, charged per active frontier
#: vertex into the ``overhead`` bucket.
ID_CONVERSION_NS_PER_VERTEX = 2.0


@dataclass
class EngineOptions:
    """Engine-level switches (the "+opt" knobs of Exp-5).

    Attributes
    ----------
    aggregate_messages:
        Early message aggregation: serialize one message per distinct
        remote destination instead of one per cross edge.
    direction_optimized_bfs:
        Push/pull switching for BFS [Beamer]: when the frontier's
        out-edges exceed ``|E| / BFS_ALPHA`` an iteration scans the
        in-edges of unvisited vertices instead. A *common* intra-GPU
        optimization in the paper's sense (both Gunrock and GUM enable
        it under "+opt").
    max_iterations:
        Safety bound; exceeding it marks the run unconverged.
    """

    aggregate_messages: bool = True
    direction_optimized_bfs: bool = True
    max_iterations: int = 200_000


class BSPEngine:
    """Bulk-synchronous engine over a virtual multi-GPU machine.

    Parameters
    ----------
    topology:
        Machine layout (also fixes the number of workers).
    scheduler:
        Work-assignment policy; defaults to :class:`StaticScheduler`.
    machine:
        Device/sync spec overrides.
    options:
        Engine switches.
    name:
        Engine label in results (benchmarks use "gunrock", "gum", ...).
    tracer:
        Observability span sink; defaults to the zero-overhead null
        tracer.
    metrics:
        Counter/gauge/histogram registry; defaults to the null
        registry.
    chaos:
        Optional fault-injection controller
        (:class:`~repro.chaos.controller.ChaosController`). With no
        controller — or a controller whose scenario is empty — runs
        are bit-identical to an engine built without the argument.
    """

    def __init__(
        self,
        topology: Topology,
        scheduler: Optional[Scheduler] = None,
        machine: Optional[MachineSpec] = None,
        options: Optional[EngineOptions] = None,
        name: str = "bsp",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        chaos: "Optional[ChaosController]" = None,
    ) -> None:
        self._topology = topology
        self._scheduler = scheduler or StaticScheduler()
        self._machine = machine
        self._timing = TimingModel(topology, machine=machine)
        self._options = options or EngineOptions()
        self._name = name
        self._tracer = tracer or NULL_TRACER
        self._metrics = metrics or NULL_METRICS
        self._chaos = chaos

    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        """The machine this engine simulates."""
        return self._topology

    @property
    def timing(self) -> TimingModel:
        """The engine's ground-truth timing model."""
        return self._timing

    @property
    def scheduler(self) -> Scheduler:
        """The active scheduling policy."""
        return self._scheduler

    @property
    def options(self) -> EngineOptions:
        """Engine switches."""
        return self._options

    @property
    def tracer(self) -> Tracer:
        """The engine's span sink (null when tracing is off)."""
        return self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The engine's metrics registry (null when metrics are off)."""
        return self._metrics

    @property
    def chaos(self) -> "Optional[ChaosController]":
        """The attached fault controller, or ``None``."""
        return self._chaos

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        partition: Partition,
        algorithm: "Union[str, GASAlgorithm]",
        max_iterations: Optional[int] = None,
        **params,
    ) -> RunResult:
        """Execute an algorithm to convergence; return the timed result."""
        if isinstance(algorithm, str):
            from repro.algorithms import make_algorithm

            algorithm = make_algorithm(algorithm)
        limit = (
            self._options.max_iterations
            if max_iterations is None
            else max_iterations
        )
        context = self._open_context(graph, partition, algorithm)
        state = algorithm.init(graph, **params)
        envelope = RunEnvelope(
            self._name, algorithm, graph, self._topology.num_gpus, state,
            self._tracer, self._metrics,
        )
        result = envelope.result
        # the session owns the run's execution threads; the finally
        # guarantees they stop even when an iteration raises mid-run
        from repro.backend import Session  # lazy: avoids import cycle

        session = Session(graph, partition, algorithm, state)
        try:
            with envelope.span():
                self._scheduler.begin_run(context)
                while state.frontier and state.iteration < limit:
                    if self._chaos is not None:
                        events = self._chaos.advance(state.iteration)
                        if events:
                            result.obs_seconds += self._apply_faults(
                                events, context, envelope.virtual_clock
                            )
                    envelope.fold(self._run_iteration(
                        graph, partition, algorithm, state, context, session
                    ))
                    state.iteration += 1
                decision_stats = self._scheduler.finish_run(context)
                if decision_stats:
                    result.decision_stats = dict(decision_stats)
        finally:
            session.close()
        result.backend_stats = session.stats()
        result.ledger = self._scheduler.ledger
        if self._metrics.enabled and result.backend_stats:
            obs_start = time.perf_counter()
            self._publish_backend_metrics(result.backend_stats)
            result.obs_seconds += time.perf_counter() - obs_start
        if self._chaos is not None:
            result.chaos = self._chaos.stats()
        return envelope.close()

    def _open_context(
        self, graph: CSRGraph, partition: Partition, algorithm
    ) -> RunContext:
        """Check the partition fits the machine; the run's context."""
        num_workers = self._topology.num_gpus
        if partition.graph is not graph:
            raise EngineError("partition was built for a different graph")
        if partition.num_fragments != num_workers:
            raise EngineError(
                f"partition has {partition.num_fragments} fragments but "
                f"machine has {num_workers} GPUs"
            )
        if self._chaos is not None:
            self._chaos.begin_run(self._topology)
        return RunContext(
            graph=graph,
            partition=partition,
            timing=self._timing,
            fragment_home=np.arange(num_workers, dtype=np.int64),
            fragment_worker=np.arange(num_workers, dtype=np.int64),
            algorithm_name=algorithm.name,
            tracer=self._tracer,
            metrics=self._metrics,
            chaos=self._chaos,
        )

    def _publish_backend_metrics(self, stats: Dict[str, object]) -> None:
        """Register the session's host-side stats as gauges.

        As registered metrics they reach every surface the registry
        feeds: the ``--metrics`` snapshot and the recorded manifest.
        """
        for key, help in _BACKEND_GAUGES:
            value = stats.get(key)
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            self._metrics.gauge(f"backend.{key}", help).set(float(value))

    # ------------------------------------------------------------------
    def _apply_faults(
        self,
        events: "List[FaultEvent]",
        context: RunContext,
        virtual_clock: float,
    ) -> float:
        """Apply newly fired faults to the run, then notify the scheduler.

        The engine owns the machine-level consequences — timing-model
        swap on link damage, fragment eviction on worker death — so
        every scheduler degrades the same way; ``on_fault`` lets a
        stateful policy additionally rebuild its derived structures.
        Returns the host seconds spent emitting fault telemetry (part
        of the run's observability overhead, not of fault handling).
        """
        chaos = self._chaos
        obs_seconds = 0.0
        for event in events:
            if event.kind == "kill_worker":
                dead = int(event.spec.params["worker"])
                heir = int(event.detail["heir"])
                context.dead_workers.add(dead)
                evicted = context.fragment_worker == dead
                context.fragment_worker[evicted] = heir
                chaos.note_evictions(int(np.count_nonzero(evicted)))
            elif event.kind == "degrade_link":
                # re-derive the machine: effective-bandwidth matrix is
                # recomputed so multi-hop steal paths reroute
                context.timing = TimingModel(
                    chaos.topology,
                    machine=self._machine,
                    device_model=self._timing.device_model,
                )
            if self._tracer.enabled or self._metrics.enabled:
                obs_start = time.perf_counter()
                if self._tracer.enabled:
                    self._tracer.instant(
                        f"chaos.{event.kind}",
                        cat="chaos",
                        virtual_ts=virtual_clock,
                        **event.as_dict(),
                    )
                if self._metrics.enabled:
                    self._metrics.counter("chaos.faults").inc(kind=event.kind)
                obs_seconds += time.perf_counter() - obs_start
            self._scheduler.on_fault(event, context)
        return obs_seconds

    # ------------------------------------------------------------------
    def _run_iteration(
        self,
        graph: CSRGraph,
        partition: Partition,
        algorithm: GASAlgorithm,
        state,
        context: RunContext,
        session,
    ) -> IterationRecord:
        """One superstep: distribute → plan → price → exchange →
        execute, then the record the run envelope folds."""
        frontier: Frontier = state.frontier
        iteration = state.iteration
        table, workloads = self._distribute(
            graph, partition, algorithm, state
        )
        # hand the distributed frontier to the session now, so a
        # threaded superstep overlaps with the plan and pricing
        session.begin_iteration(table)
        plan = self._plan(iteration, table, workloads, context)
        # price from each owning fragment's features in the table (the
        # scheduler's own feature scan is not repeated)
        busy, compute_part, comm_part = self._price_chunks(
            plan, table.features, context, context.num_workers,
            iteration=iteration,
        )
        active = sorted(set(plan.active_workers))
        serialization, message_transfer = self._message_costs(
            context, frontier, active, session
        )
        sync = (context.timing.sync_seconds(len(active))
                * self._sync_multiplier(algorithm, state))
        # execute semantics (independent of the plan)
        state.frontier = session.step()

        active_arr = np.asarray(active, dtype=np.int64)
        busy_active = busy[active_arr]
        stall_active = busy_active.max() - busy_active
        stall = np.zeros(context.num_workers)
        stall[active_arr] = stall_active
        # float(add.reduce(x)) / n is np.mean's own arithmetic
        total = np.add.reduce
        breakdown = TimeBreakdown(
            compute=float(total(compute_part[active_arr])) / len(active),
            communication=(
                float(total(comm_part[active_arr])) / len(active)
                + float(total(stall_active)) / len(active)
                + message_transfer
            ),
            serialization=serialization,
            sync=sync,
            overhead=(
                plan.decision_seconds
                + frontier.size * ID_CONVERSION_NS_PER_VERTEX * 1e-9
            ),
        )
        record = IterationRecord(
            iteration=iteration,
            frontier_size=frontier.size,
            frontier_edges=int(workloads.sum()),
            active_workers=active,
            busy_seconds=busy,
            stall_seconds=stall,
            wall_seconds=breakdown.total,
            breakdown=breakdown,
            fsteal_applied=plan.fsteal_applied,
            osteal_group_size=plan.osteal_group_size,
            stolen_edges=plan.stolen_edges,
            real_decision_seconds=plan.real_decision_seconds,
        )
        self._scheduler.observe(record, context)
        return record

    def _distribute(
        self, graph: CSRGraph, partition: Partition, algorithm, state
    ) -> tuple[FragmentTable, np.ndarray]:
        """Split the frontier over its data homes: the superstep's
        :class:`~repro.runtime.frontier.FragmentTable` (parts, work and
        Table-I features from one pass), which the plan, its validation
        and the pricing all read, and the edges each fragment processes.
        """
        table = state.frontier.split_by_owner(
            partition.owner, partition.num_fragments, graph
        )
        workloads = np.array(table.work, dtype=np.int64)
        return table, self._effective_workloads(
            graph, partition, algorithm, state, workloads
        )

    def _plan(self, iteration: int, table: FragmentTable,
              workloads: np.ndarray, context: RunContext) -> IterationPlan:
        """Ask the stealing arbitrator who processes what; check it."""
        wall_start = time.perf_counter()
        plan = self._scheduler.plan(iteration, table, workloads, context)
        plan.real_decision_seconds = max(
            plan.real_decision_seconds, time.perf_counter() - wall_start
        )
        self._validate_plan(plan, workloads, context.num_workers,
                            context.dead_workers)
        if not plan.active_workers:
            raise EngineError("iteration plan has no active workers")
        return plan

    # ------------------------------------------------------------------
    def _price_chunks(
        self,
        plan: IterationPlan,
        fragment_features: list,
        context: RunContext,
        num_workers: int,
        iteration: int = 0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Price every chunk of the plan, vectorized over its columns.

        Returns per-worker ``(busy, compute, comm)`` seconds, by the
        per-chunk recurrence of the module docstring. ``g*`` is
        evaluated once per *fragment*, from its features — the W_i of
        the paper's c_ij — so compute prices identically across engines
        even when the effective workload is decoupled from the frontier
        (pull-mode BFS, near-far discounts).
        """
        owners, workers, edges = plan.owner, plan.worker, plan.edges
        hub_edges, moved = plan.hub_edges, plan.stop - plan.start
        rows = edges != 0
        if not rows.all():
            if not rows.any():
                return (np.zeros(num_workers), np.zeros(num_workers),
                        np.zeros(num_workers))
            owners, workers, edges, hub_edges, moved = (
                column[rows]
                for column in (owners, workers, edges, hub_edges, moved)
            )
        edges = edges.astype(np.float64)
        hub_edges = hub_edges.astype(np.float64)
        homes = context.fragment_home[owners]
        edge_cost = context.timing.device_model.edge_costs(fragment_features)
        compute = edges * np.take(edge_cost, owners)
        per_edge = context.timing.comm_per_edge_matrix()
        comm = (
            (edges - hub_edges) * per_edge[homes, workers]
            + hub_edges * per_edge[workers, workers]
        )
        stolen = workers != homes
        if stolen.any():
            # frontier-status migration: stolen vertex ids + values
            bandwidth_gbps = context.timing.topology \
                .effective_bandwidth_matrix()[homes[stolen], workers[stolen]]
            migrate_seconds = (
                moved[stolen].astype(np.float64) * config.BYTES_PER_VERTEX
                / (bandwidth_gbps * 1e9)
            )
            comm[stolen] += migrate_seconds
            chaos = self._chaos
            if chaos is not None and chaos.flaky_active(iteration):
                # every failed attempt retransmits and backs off: one
                # seeded batch draw per distinct owner/worker pair,
                # bit-identical to the per-chunk formulation
                fails = chaos.failed_transfer_attempts_batch(
                    iteration, owners[stolen], workers[stolen]
                )
                comm[stolen] += chaos.retry_seconds_batch(
                    migrate_seconds, fails
                )
        # one kernel launch per chunk: stolen chunks run in a separate
        # kernel (Section V, Step 4)
        compute = compute + context.timing.kernel_launch_seconds(1)
        # bincount accumulates row by row, as np.add.at does
        busy = np.bincount(workers, compute + comm, num_workers)
        compute_part = np.bincount(workers, compute, num_workers)
        comm_part = np.bincount(workers, comm, num_workers)
        scale = (
            None if self._chaos is None
            else self._chaos.compute_scale(iteration)
        )
        if scale is not None:
            # a slowed worker's kernels stretch; everything else
            # (transfers, sync) is unaffected
            busy = busy + compute_part * (scale - 1.0)
            compute_part = compute_part * scale
        return busy, compute_part, comm_part

    # ------------------------------------------------------------------
    # Hooks for engine models with algorithm-specific behaviour
    # (the Gunrock baseline overrides these; GUM does not).
    # ------------------------------------------------------------------
    def _effective_workloads(
        self,
        graph: CSRGraph,
        partition: Partition,
        algorithm,
        state,
        workloads: np.ndarray,
    ) -> np.ndarray:
        """Edges actually processed per fragment this iteration.

        The default engine processes the frontier's out-edges, except
        for pull-mode BFS iterations (when enabled). Engine models with
        further algorithm-specific kernels (the Gunrock baseline)
        extend this.
        """
        if (
            algorithm.name == "bfs"
            and self._options.direction_optimized_bfs
        ):
            return self._direction_optimize(graph, partition, state,
                                            workloads)
        return workloads

    def _direction_optimize(
        self,
        graph: CSRGraph,
        partition: Partition,
        state,
        workloads: np.ndarray,
    ) -> np.ndarray:
        """Pull-mode workloads when cheaper than pushing the frontier."""
        push_edges = int(workloads.sum())
        if push_edges <= graph.num_edges / BFS_ALPHA:
            return workloads
        unvisited = np.isinf(state.values)
        if not np.any(unvisited):
            return workloads
        in_deg = graph.in_degrees()
        pull_per_fragment = np.zeros_like(workloads)
        np.add.at(
            pull_per_fragment,
            partition.owner[unvisited],
            in_deg[unvisited],
        )
        if int(pull_per_fragment.sum()) >= push_edges:
            return workloads
        return pull_per_fragment.astype(np.int64)

    def _sync_multiplier(self, algorithm, state) -> float:
        """Scale on the per-iteration synchronization cost.

        Multi-phase kernels (e.g. near-far SSSP buckets) synchronize
        more than once per logical iteration.
        """
        return 1.0

    # ------------------------------------------------------------------
    def _message_costs(
        self,
        context: RunContext,
        frontier: Frontier,
        active: list,
        session,
    ) -> tuple[float, float]:
        """Price cross-worker messages: (packing, link transfer).

        Packing is the serialization bucket; the transfer rides the
        aggregate NVLink bandwidth of the active group (BSP systems may
        use every link, unlike Groute's single ring) and lands in the
        communication bucket. The message count comes from the session,
        the same number on either of its paths.
        """
        if frontier.size == 0:
            return 0.0, 0.0
        num_messages = session.message_count(
            frontier, self._options.aggregate_messages, context
        )
        if num_messages == 0:
            return 0.0, 0.0
        packing = context.timing.serialization_seconds(num_messages)
        topology = context.timing.topology
        aggregate_gbps = topology.aggregate_bandwidth(active)
        if aggregate_gbps <= 0:
            aggregate_gbps = topology.direct_bandwidth(0, 0)
        transfer = (
            num_messages * config.BYTES_PER_MESSAGE
            / (aggregate_gbps * 1e9)
        )
        return packing, transfer

    def _validate_plan(
        self,
        plan: IterationPlan,
        workloads: np.ndarray,
        num_workers: int,
        dead_workers: Optional[set] = None,
    ) -> None:
        """Reject plans that drop or duplicate work, or use dead GPUs.

        Both index ranges are checked before either column indexes an
        array, so a negative id is rejected instead of wrapping.
        """
        for role, ids, limit in (("worker", plan.worker, num_workers),
                                 ("owner", plan.owner, workloads.size)):
            if ids.size and (np.minimum.reduce(ids) < 0
                             or np.maximum.reduce(ids) >= limit):
                bad = ids[(ids < 0) | (ids >= limit)][0]
                raise EngineError(f"chunk {role} {bad} out of range")
        if dead_workers:
            dead = plan.worker[np.isin(plan.worker, list(dead_workers))]
            if dead.size:
                raise DegradedModeError(
                    f"iteration plan assigns work to dead worker {dead[0]}"
                )
        # float sums of integer edge counts are exact below 2**53
        assigned = np.bincount(plan.owner, weights=plan.edges,
                               minlength=workloads.size)
        if not (assigned == workloads).all():
            raise EngineError(
                "iteration plan does not conserve workload: "
                f"assigned={assigned.astype(np.int64).tolist()} "
                f"expected={workloads.tolist()}"
            )
