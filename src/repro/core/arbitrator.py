"""The stealing arbitrator (Section V, Figure 5).

:class:`GumScheduler` is the coordinator-side policy at the heart of
GUM. Each iteration it:

1. decides **OSteal** (Algorithm 2) when the long-tail trigger fires —
   previous iteration cheaper than ``t3``, or the group is already
   folded (so re-growth is re-evaluated as workload returns);
2. decides **FSteal** (Algorithm 1) when the DLB triggers fire —
   enough frontier edges (``t1``) and enough imbalance (``t2``);
3. realizes the chosen touched-edges matrix as consecutive vertex
   slices, marking hub-cached edges (``t4``) as local.

The arbitrator estimates the synchronization parameter ``p`` from
observed iterations and charges its own decision latency into the
virtual clock (``overhead_mode``: a deterministic model by default,
the measured wall time of the decision code if requested, or nothing).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import config as repro_config
from repro.chaos.controller import SOLVER_TIMEOUT_SECONDS, FaultEvent
from repro.core.costmodel import (
    CostModel,
    OnlineRMSRE,
    OracleCostModel,
    UniformCostModel,
    pretrained_default,
)
from repro.core.fsteal import (
    VertexAssignment,
    build_cost_matrix,
    select_vertices,
)
from repro.core.decision_cache import (
    LruDict,
    PlanCache,
    quantize,
    repair_assignment,
)
from repro.core.hubcache import HubCache
from repro.core.milp import FStealProblem, FStealSolution, make_solver
from repro.core.osteal import plan_osteal
from repro.core.reduction_tree import ReductionTree, make_reduction_tree
from repro.errors import EngineError
from repro.hardware.microbench import measure_comm_cost_matrix
from repro.obs.ledger import Ledger
from repro.runtime.frontier import Frontier
from repro.runtime.metrics import IterationRecord
from repro.runtime.scheduler import (
    IterationPlan,
    RunContext,
    Scheduler,
    WorkChunk,
)

__all__ = ["GumConfig", "GumScheduler"]

#: Relative quantization width of the plan-cache and z(m) fingerprints
#: (see ``repro.core.decision_cache.quantize``): inputs within 5% of
#: each other share a cached decision.
AMORTIZE_TOLERANCE = 0.05

#: LRU bound on cached FSteal plans.
PLAN_CACHE_SIZE = 64

#: Seed of the simulated bandwidth micro-benchmark.
BANDWIDTH_SEED = 0


@dataclass
class GumConfig:
    """Tunables of the GUM arbitrator (the paper's t1..t4 and friends).

    Attributes
    ----------
    fsteal / osteal / hub_cache:
        Feature switches (the Exp-5 incremental axes).
    solver:
        FSteal solver name (``greedy``/``lp``/``bnb``/``highs``) or an
        instantiated solver.
    cost_model:
        ``"default"`` (pretrained degree-4 polynomial), ``"oracle"``
        (ground truth — Exp-7's upper bound), ``"uniform"`` (bandwidth
        only), any :class:`CostModel` instance, or a path to a
        ``repro-costmodel/1`` artifact written by
        ``repro costmodel fit`` (see ``docs/costmodel.md``).
    t1_min_edges:
        FSteal fires only when the busiest worker has at least this
        many active edges (Example 5, condition 1).
    t2_imbalance_edges:
        ... and the busiest-minus-idlest gap exceeds this (condition 2).
    t2_imbalance_ratio:
        Relative counterpart of ``t2``: the gap must also be at least
        this fraction of the heaviest load, so near-balanced iterations
        are not "rebalanced" at a net loss.
    t3_runtime_seconds:
        OSteal re-evaluates when the previous iteration's wall time is
        below this (the long-tail detector).
    t4_hub_in_degree:
        Vertices with larger in-degree are hub-cached on every GPU.
    osteal_cooldown:
        Minimum iterations between OSteal evaluations (Algorithm 2
        enumerates group sizes — do not pay that every tail iteration).
    amortize:
        Decision-amortization master switch (default on): plan caching
        with tolerance-based fingerprint reuse, warm-started solvers,
        and the incremental bracket OSteal search. Turning it **off**
        is the exact-mode escape hatch — every decision is recomputed
        from scratch and virtual-time results are bit-identical to the
        pre-amortization code path.
    ledger:
        Record the per-decision explainability ledger (default on):
        one ``repro-ledger/1`` entry per arbitrator decision with the
        quantized inputs, the chosen plan, cache status, and the
        predicted-vs-measured cost audit. Entries hold virtual-clock
        and model quantities only, so recording never perturbs
        simulated time; ``repro explain`` renders the result.
    overhead_mode:
        ``"modeled"`` (deterministic cost estimate — default, keeps
        runs reproducible), ``"measured"`` (charge the real wall time
        of the decision code), or ``"none"``.
    """

    fsteal: bool = True
    osteal: bool = True
    hub_cache: bool = True
    solver: Union[str, object] = "greedy"
    cost_model: Union[str, CostModel] = "default"
    # Thresholds are in *simulated* edges (1 simulated edge stands for
    # config.EDGE_SCALE original ones), hence the small defaults.
    t1_min_edges: int = 256
    t2_imbalance_edges: int = 64
    t2_imbalance_ratio: float = 0.10
    t3_runtime_seconds: float = 2.5e-3
    t4_hub_in_degree: int = 128
    osteal_cooldown: int = 10
    amortize: bool = True
    ledger: bool = True
    overhead_mode: str = "modeled"

    def resolve_cost_model(self) -> CostModel:
        """Materialize the configured cost model."""
        if isinstance(self.cost_model, CostModel):
            return self.cost_model
        if self.cost_model == "default":
            return pretrained_default()
        if self.cost_model == "oracle":
            return OracleCostModel()
        if self.cost_model == "uniform":
            return UniformCostModel()
        if os.path.isfile(self.cost_model):
            # a repro-costmodel/1 artifact from `repro costmodel fit`
            from repro.core.costmodel_v2 import load_artifact

            return load_artifact(self.cost_model)
        raise EngineError(
            f"unknown cost model {self.cost_model!r}; expected "
            "'default', 'oracle', 'uniform', a CostModel instance, or "
            "a path to a repro-costmodel/1 artifact"
        )

    def resolve_solver(self):
        """Materialize the configured FSteal solver."""
        if isinstance(self.solver, str):
            return make_solver(self.solver)
        return self.solver


@dataclass
class _RunState:
    """Per-run mutable arbitrator state.

    ``solver`` is the per-run solving interface: the configured solver
    itself on healthy runs, or a chaos-aware
    :class:`~repro.chaos.fallback.FallbackSolver` wrap when a fault
    controller is attached. ``heirs`` records, for every killed
    worker, which survivor inherited its fragments (chains resolve
    through later deaths).
    """

    comm_cost: np.ndarray
    tree: ReductionTree
    hub_cache: Optional[HubCache]
    solver: object = None
    heirs: Dict[int, int] = field(default_factory=dict)
    active: List[int] = field(default_factory=list)
    group_size: int = 0
    prev_wall: float = float("inf")
    p_estimate: float = 1e-4
    last_osteal_iteration: int = -(10**9)
    workload_at_decision: int = 0
    osteal_backoff: int = 0
    online_rmsre: OnlineRMSRE = field(default_factory=OnlineRMSRE)
    # --- decision amortization ---------------------------------------
    plan_cache: Optional[PlanCache] = None
    warm_assignment: Optional[np.ndarray] = None
    warm_accepts: int = 0
    # per-fingerprint z(m) memos: cycling tail frontiers each keep
    # their own map instead of thrashing a single shared one
    osteal_z: LruDict = field(default_factory=lambda: LruDict(16))
    osteal_last_fp: Optional[tuple] = None
    osteal_invalidations: int = 0
    osteal_z_reused: int = 0
    osteal_z_evaluated: int = 0
    # --- decision ledger ----------------------------------------------
    ledger: Optional[Ledger] = None
    ledger_instruments: Optional[tuple] = None
    # --- hierarchical two-level stealing ------------------------------
    # GPU -> node assignment and per-node representative ids, set only
    # on multi-node topologies; None keeps single-node planning
    # bit-identical to the flat policy
    worker_nodes: Optional[np.ndarray] = None
    node_reps: Optional[List[int]] = None


class _EvictedTree:
    """Reduction tree over the survivors of worker eviction.

    Presents the :class:`ReductionTree` interface (``ownership``,
    ``active_workers``) in *original* GPU ids while folding only among
    alive workers: the inner tree is built on ``topology.subset`` of
    the survivors, and dead fragments chase the heir chain recorded at
    eviction time. Group sizes beyond the survivor count clamp to it —
    the degraded machine simply has fewer rungs to unfold.
    """

    def __init__(self, topology, alive: Sequence[int],
                 heirs: Dict[int, int]) -> None:
        self._alive = [int(w) for w in alive]
        self._heirs = dict(heirs)
        self._num_gpus = topology.num_gpus
        self._local = {w: i for i, w in enumerate(self._alive)}
        self._inner = make_reduction_tree(topology.subset(self._alive))

    @property
    def representatives(self) -> List[int]:
        """Per-node representative ids in *original* numbering."""
        inner_reps = getattr(self._inner, "representatives", None)
        if inner_reps is None:
            return []
        return sorted(self._alive[int(r)] for r in inner_reps)

    def _resolve(self, worker: int) -> int:
        # death is monotone within a run, so the chain cannot cycle
        while worker in self._heirs:
            worker = self._heirs[worker]
        return worker

    def _clamp(self, group_size: int) -> int:
        return max(1, min(int(group_size), len(self._alive)))

    def active_workers(self, group_size: int) -> List[int]:
        """Sorted surviving worker ids (original numbering)."""
        local = self._inner.active_workers(self._clamp(group_size))
        return [self._alive[w] for w in local]

    def ownership(self, group_size: int) -> np.ndarray:
        """Fragment -> worker vector ``O`` over all original fragments."""
        inner_own = self._inner.ownership(self._clamp(group_size))
        out = np.empty(self._num_gpus, dtype=inner_own.dtype)
        for fragment in range(self._num_gpus):
            holder = self._resolve(fragment)
            out[fragment] = self._alive[
                int(inner_own[self._local[holder]])
            ]
        return out


class _PredictionMemo:
    """One decision's view of the cost model, predictions shared.

    The prediction audit, OSteal's fingerprint coefficients, and the
    FSteal cost matrix all ask for ``g`` of the *same* per-fragment
    feature objects within a single ``plan`` call; this wrapper makes
    the (bit-identical) single-row prediction once per object. Scoped
    to one decision, so a refit model can never serve stale values.
    """

    def __init__(self, model: CostModel) -> None:
        self._model = model
        self._memo: Dict[int, tuple] = {}

    def edge_cost_seconds(self, features) -> float:
        hit = self._memo.get(id(features))
        if hit is not None and hit[0] is features:
            return hit[1]
        value = self._model.edge_cost_seconds(features)
        self._memo[id(features)] = (features, value)
        return value

    def __getattr__(self, name):
        return getattr(self._model, name)


class GumScheduler(Scheduler):
    """The GUM coordinator policy (OSteal before FSteal, Section V)."""

    name = "gum"

    def __init__(self, config: Optional[GumConfig] = None) -> None:
        self._config = config or GumConfig()
        self._cost_model = self._config.resolve_cost_model()
        self._solver = self._config.resolve_solver()
        self._state: Optional[_RunState] = None

    @property
    def config(self) -> GumConfig:
        """The arbitrator configuration."""
        return self._config

    @property
    def ledger(self) -> Optional[Ledger]:
        """Decision ledger of the current (or most recent) run."""
        state = self._state
        return state.ledger if state is not None else None

    # ------------------------------------------------------------------
    def begin_run(self, context: RunContext) -> None:
        """Reset per-run state for a new execution."""
        topology = context.timing.topology
        comm_cost = measure_comm_cost_matrix(
            topology,
            repro_config.BYTES_PER_EDGE,
            seed=BANDWIDTH_SEED,
        )
        hub_cache = (
            HubCache(context.graph, self._config.t4_hub_in_degree,
                     metrics=context.metrics)
            if self._config.hub_cache
            else None
        )
        # the fallback chain only wraps the solver under fault
        # injection, so healthy runs call the configured backend with
        # zero indirection (bit-identical virtual times); imported
        # lazily — chaos.fallback builds on core.milp, so a module-level
        # import would be circular
        solver = self._solver
        if context.chaos is not None:
            from repro.chaos.fallback import FallbackSolver

            solver = FallbackSolver(self._solver, context.chaos)
        self._state = _RunState(
            comm_cost=comm_cost,
            tree=make_reduction_tree(topology),
            hub_cache=hub_cache,
            solver=solver,
            active=list(range(topology.num_gpus)),
            group_size=topology.num_gpus,
            plan_cache=(
                PlanCache(
                    max_entries=PLAN_CACHE_SIZE,
                    tolerance=AMORTIZE_TOLERANCE,
                )
                if self._config.amortize
                else None
            ),
            ledger=(
                Ledger(
                    # artifact-backed models carry a content-addressed
                    # label that stays stable across filesystem paths
                    model=(
                        getattr(self._cost_model, "artifact_label",
                                None)
                        or (
                            self._config.cost_model
                            if isinstance(self._config.cost_model, str)
                            else type(self._cost_model).__name__
                        )
                    ),
                    amortize=self._config.amortize,
                    fingerprint_tolerance=AMORTIZE_TOLERANCE,
                )
                if self._config.ledger
                else None
            ),
        )
        if topology.num_nodes > 1:
            self._state.worker_nodes = np.asarray(
                topology.node_assignment, dtype=np.int64
            )
            self._state.node_reps = list(
                getattr(self._state.tree, "representatives", [])
            )
        # initial p guess: one sync with everyone, spread per worker
        self._state.p_estimate = context.timing.sync_seconds(
            topology.num_gpus
        ) / topology.num_gpus

    # ------------------------------------------------------------------
    def plan(
        self,
        iteration: int,
        fragment_frontiers: Sequence[Frontier],
        workloads: np.ndarray,
        context: RunContext,
    ) -> IterationPlan:
        """Produce this iteration's work assignment."""
        state = self._state
        if state is None:
            raise EngineError("scheduler used before begin_run")
        tracer, metrics = context.tracer, context.metrics
        started = time.perf_counter()
        modeled_overhead = 0.0
        num_workers = context.num_workers
        # memoized on the frontier objects: the engine prices the plan
        # from these same features, so the scan happens exactly once
        features = [
            frontier.features(context.graph)
            for frontier in fragment_frontiers
        ]
        # feature extraction is a scan over active vertices (Exp-3)
        total_frontier = int(sum(f.size for f in features))
        modeled_overhead += 2.5e-8 * total_frontier

        cost_model = _PredictionMemo(self._cost_model)
        ledger = state.ledger
        if ledger is not None:
            ledger.begin(
                iteration,
                workloads,
                fingerprint=self._ledger_fingerprint(features, workloads),
            )
        if metrics.enabled or ledger is not None:
            self._observe_cost_model(
                context, features, workloads, cost_model
            )

        fsteal_solution = None

        # --- Step 2: ownership stealing -------------------------------
        total_workload = int(workloads.sum())
        if self._config.osteal and self._osteal_triggered(
            iteration, state, total_workload
        ):
            with tracer.span(
                "gum.osteal", track="coordinator", cat="osteal",
                iteration=iteration, workload=total_workload,
            ) as osteal_span:
                solve_started = time.perf_counter()
                decision = self._plan_osteal(
                    features, workloads, context, tracer, cost_model
                )
                osteal_span.set(
                    group_size=decision.group_size,
                    prev_group_size=state.group_size,
                    estimated_cost=decision.estimated_cost,
                    estimated_kernel=decision.estimated_kernel,
                    p_estimate=state.p_estimate,
                )
            if ledger is not None:
                candidates = num_workers
                if (context.chaos is not None
                        and context.chaos.dead_workers):
                    candidates = len(context.chaos.alive_workers())
                ledger.record_osteal(
                    group_size=decision.group_size,
                    prev_group_size=state.group_size,
                    candidates=candidates,
                    evaluated_sizes=decision.evaluated_sizes,
                    reused_sizes=decision.reused_sizes,
                    estimated_cost=decision.estimated_cost,
                    estimated_kernel=decision.estimated_kernel,
                    p_estimate=state.p_estimate,
                )
            if metrics.enabled:
                metrics.counter("osteal.evaluations").inc()
                metrics.histogram(
                    "osteal.solve_seconds",
                    "host wall time of Algorithm 2 enumerations",
                ).observe(time.perf_counter() - solve_started)
                if decision.group_size != state.group_size:
                    metrics.counter("osteal.group_changes").inc()
            if self._config.amortize:
                # charge only the solves actually performed: the
                # bracket search + z-cache makes most sizes free
                modeled_overhead += (
                    self._OSTEAL_EVAL_SECONDS * decision.evaluated_sizes
                )
            else:
                modeled_overhead += self._modeled_osteal_seconds(
                    num_workers
                )
            state.last_osteal_iteration = iteration
            state.workload_at_decision = total_workload
            if decision.group_size != state.group_size:
                state.osteal_backoff = self._config.osteal_cooldown
            else:
                # stable decision: back off exponentially so long tails
                # are not charged an enumeration every few iterations
                state.osteal_backoff = min(
                    max(state.osteal_backoff,
                        self._config.osteal_cooldown) * 2,
                    8 * self._config.osteal_cooldown,
                )
            state.group_size = decision.group_size
            state.active = decision.active_workers
            context.fragment_worker[:] = decision.ownership
            fsteal_solution = decision.fsteal

        # --- Step 3: frontier stealing --------------------------------
        fsteal_applied = False
        if self._config.fsteal and self._fsteal_triggered(
            workloads, context, state
        ):
            costs_used = None
            static = gain = None
            if fsteal_solution is None:
                with tracer.span(
                    "gum.fsteal.milp", track="coordinator", cat="fsteal",
                    iteration=iteration,
                    solver=getattr(state.solver, "name",
                                   type(state.solver).__name__),
                ) as fsteal_span:
                    solve_started = time.perf_counter()
                    costs_used = build_cost_matrix(
                        state.comm_cost,
                        features,
                        cost_model,
                        context.fragment_home,
                        allowed_workers=state.active,
                        worker_nodes=state.worker_nodes,
                        node_representatives=state.node_reps,
                    )
                    problem = FStealProblem(costs_used, workloads)
                    if self._config.amortize:
                        fsteal_solution = self._amortized_solve(problem)
                    else:
                        fsteal_solution = state.solver.solve(problem)
                    fsteal_span.set(
                        objective=fsteal_solution.objective,
                        solver=fsteal_solution.solver,
                        warm_started=fsteal_solution.warm_started,
                    )
                if metrics.enabled:
                    metrics.histogram(
                        "fsteal.solve_seconds",
                        "host wall time of the FSteal MILP",
                    ).observe(time.perf_counter() - solve_started)
            solved = fsteal_solution
            cache_hit = (
                fsteal_solution is not None
                and fsteal_solution.solver == "plan-cache"
            )
            if self._config.amortize and cache_hit:
                fsteal_overhead = self._modeled_fsteal_cache_seconds(
                    num_workers
                )
            else:
                fsteal_overhead = self._modeled_fsteal_seconds(
                    num_workers, total_frontier
                )
            modeled_overhead += fsteal_overhead
            # cost-based gate (Example 5's spirit, made quantitative):
            # commit only when the predicted makespan gain covers the
            # decision overhead — near-balanced iterations stay put
            if costs_used is not None:
                static = self._static_makespan(
                    costs_used, workloads, context.fragment_worker
                )
                gain = static - fsteal_solution.objective
                if metrics.enabled:
                    metrics.histogram(
                        "fsteal.makespan_gain_seconds",
                        "predicted static-minus-stolen makespan gap",
                    ).observe(gain)
                if gain <= fsteal_overhead:
                    if metrics.enabled:
                        metrics.counter("fsteal.rejected_by_gate").inc()
                    fsteal_solution = None
            if ledger is not None and solved is not None:
                ledger.record_fsteal(
                    solver=solved.solver,
                    cache_status=self._cache_status(solved),
                    objective=solved.objective,
                    warm_started=solved.warm_started,
                    static_makespan=static,
                    gain=gain,
                    modeled_overhead=fsteal_overhead,
                    rejected_by_gate=fsteal_solution is None,
                )
            if fsteal_solution is not None:
                fsteal_applied = True
        elif not self._config.fsteal:
            fsteal_solution = None
        elif fsteal_solution is not None and not self._fsteal_triggered(
            workloads, context, state
        ):
            # OSteal ran but FSteal thresholds are not met: fall back to
            # owner-local processing instead of the enumerated X.
            fsteal_solution = None

        chunks, stolen_edges, migrated, inter_node_stolen = self._realize(
            context, fragment_frontiers, workloads, fsteal_solution
        )

        if context.chaos is not None:
            # each injected solver timeout burned the abandoned solve's
            # budget before a fallback backend could take over
            modeled_overhead += (
                SOLVER_TIMEOUT_SECONDS
                * context.chaos.drain_timeout_charges()
            )

        real_elapsed = time.perf_counter() - started
        mode = self._config.overhead_mode
        if mode == "modeled":
            decision_seconds = modeled_overhead
        elif mode == "measured":
            decision_seconds = real_elapsed
        elif mode == "none":
            decision_seconds = 0.0
        else:
            raise EngineError(f"unknown overhead mode {mode!r}")

        if metrics.enabled and self._config.amortize:
            self._publish_decision_metrics(metrics, state)

        if ledger is not None:
            # committed after the host-clock measurement above so
            # measured-overhead runs stay unperturbed by recording
            ledger.commit(
                group_size=state.group_size,
                active_workers=state.active,
                fsteal_applied=fsteal_applied,
                stolen_edges=stolen_edges,
                migrated_vertices=migrated,
                inter_node_stolen_edges=inter_node_stolen,
            )
            if metrics.enabled:
                self._publish_ledger_metrics(metrics, ledger, iteration)

        return IterationPlan(
            chunks=chunks,
            active_workers=list(state.active),
            decision_seconds=decision_seconds,
            real_decision_seconds=real_elapsed,
            fsteal_applied=fsteal_applied,
            osteal_group_size=state.group_size,
            stolen_edges=stolen_edges,
            migrated_vertices=migrated,
        )

    # --- decision amortization ----------------------------------------
    def _amortized_solve(self, problem: FStealProblem) -> FStealSolution:
        """Solve one FSteal instance through the amortization layer.

        Order of attack: (1) plan cache — a fingerprint hit returns the
        repaired, re-validated previous plan priced against the *live*
        costs (``solver="plan-cache"``); (2) warm-started solve — the
        previous iteration's assignment, repaired to the current
        workloads, seeds the configured solver; the result is cached
        for the next iteration either way.
        """
        state = self._state
        cache = state.plan_cache
        if cache is None:
            return state.solver.solve(problem)
        key = cache.fingerprint(problem.costs, problem.workloads)
        cached = cache.fetch(key, problem)
        if cached is not None:
            state.warm_assignment = cached
            return FStealSolution(
                assignment=cached,
                objective=problem.objective(cached),
                solver="plan-cache",
            )
        warm = None
        if state.warm_assignment is not None:
            warm = repair_assignment(state.warm_assignment, problem)
        solution = state.solver.solve(problem, warm_start=warm)
        if solution.warm_started:
            state.warm_accepts += 1
        cache.store(key, solution.assignment)
        state.warm_assignment = solution.assignment
        return solution

    def _plan_osteal(
        self,
        features: Sequence,
        workloads: np.ndarray,
        context: RunContext,
        tracer,
        cost_model: Optional[_PredictionMemo] = None,
    ):
        """Run Algorithm 2 — amortized (bracket + z-cache) or exact."""
        state = self._state
        if cost_model is None:
            cost_model = _PredictionMemo(self._cost_model)
        # only survivors can appear in a group once workers have been
        # evicted; on healthy runs the enumeration stays 1..n untouched
        sizes = None
        if context.chaos is not None and context.chaos.dead_workers:
            sizes = range(1, len(context.chaos.alive_workers()) + 1)
        if not self._config.amortize:
            return plan_osteal(
                state.tree,
                state.comm_cost,
                features,
                workloads,
                context.fragment_home,
                cost_model,
                state.solver,
                state.p_estimate,
                candidate_sizes=sizes,
                tracer=tracer,
                worker_nodes=state.worker_nodes,
                node_representatives=state.node_reps,
            )
        # z(m) reuse is sound only while the decision inputs are the
        # same up to tolerance: fingerprint the workload vector, the
        # per-fragment cost-model coefficients, and the sync estimate.
        tol = AMORTIZE_TOLERANCE
        g_values = np.array([
            0.0 if f.total_edges == 0
            else cost_model.edge_cost_seconds(f)
            for f in features
        ])
        fp = (
            quantize(np.asarray(workloads, dtype=np.float64), tol),
            quantize(g_values, tol),
            quantize(np.array([state.p_estimate]), tol),
        )
        if state.osteal_last_fp is not None and fp != state.osteal_last_fp:
            state.osteal_invalidations += 1
        state.osteal_last_fp = fp
        z_cache = state.osteal_z.get_or_create(fp, dict)
        decision = plan_osteal(
            state.tree,
            state.comm_cost,
            features,
            workloads,
            context.fragment_home,
            cost_model,
            state.solver,
            state.p_estimate,
            candidate_sizes=sizes,
            tracer=tracer,
            search="bracket",
            z_cache=z_cache,
            start_size=state.group_size or None,
            solve=self._amortized_solve,
            worker_nodes=state.worker_nodes,
            node_representatives=state.node_reps,
        )
        state.osteal_z_reused += decision.reused_sizes
        state.osteal_z_evaluated += decision.evaluated_sizes
        return decision

    def _publish_decision_metrics(self, metrics, state: _RunState) -> None:
        """Mirror cumulative amortization counters into the registry."""
        values = {
            "decision.warm.accepts": state.warm_accepts,
            "decision.osteal.z_reused": state.osteal_z_reused,
            "decision.osteal.z_evaluated": state.osteal_z_evaluated,
            "decision.osteal.invalidations": state.osteal_invalidations,
        }
        if state.plan_cache is not None:
            stats = state.plan_cache.stats()
            values.update({
                "decision.cache.hits": stats["hits"],
                "decision.cache.misses": stats["misses"],
                "decision.cache.invalidations": stats["invalidations"],
                "decision.cache.evictions": stats["evictions"],
            })
        for name, total in values.items():
            counter = metrics.counter(name)
            delta = float(total) - counter.value()
            if delta > 0:
                counter.inc(delta)

    # --- decision ledger ----------------------------------------------
    @staticmethod
    def _ledger_fingerprint(
        features: Sequence, workloads: np.ndarray
    ) -> Optional[list]:
        """Raw snapshot of this decision's inputs, for fingerprinting.

        The frontier feature vectors plus workloads, handed to the
        ledger as a list of parts — it concatenates and log-buckets
        them lazily with the same quantization the plan cache keys on,
        so two decisions with the same resolved fingerprint saw the
        same problem up to the amortization tolerance. (The feature
        vectors are the frontiers' cached copies and never mutate; the
        workload vector is copied here because the engine reuses it.)
        """
        if not features:
            return None
        parts = [f.vector() for f in features]
        parts.append(np.array(workloads, dtype=np.float64))
        return parts

    @staticmethod
    def _cache_status(solution: FStealSolution) -> str:
        """Ledger taxonomy of one FSteal solve: live/warm/cached."""
        if solution.solver == "plan-cache":
            return "cached"
        if solution.warm_started:
            return "warm"
        return "live"

    def _publish_ledger_metrics(
        self, metrics, ledger: Ledger, iteration: int
    ) -> None:
        """Mirror ledger accuracy state into the live registry."""
        state = self._state
        instruments = state.ledger_instruments
        if instruments is None:
            # resolve the registry handles once per run — publishing
            # runs every iteration and name lookups are not free
            instruments = state.ledger_instruments = (
                metrics.counter(
                    "ledger.samples",
                    "prediction-audit samples recorded by the "
                    "decision ledger",
                ),
                metrics.counter(
                    "ledger.skipped_samples",
                    "audit samples dropped for non-positive "
                    "measured cost",
                ),
                metrics.gauge(
                    "ledger.entries",
                    "decisions recorded in the ledger",
                ),
                metrics.gauge(
                    "ledger.drift_z",
                    "EWMA drift z-score of the cost model's "
                    "prediction error",
                ),
                metrics.timeseries(
                    "ledger.rmsre_series",
                    "online RMSRE after each recorded decision",
                ),
            )
        samples, skipped, entries, drift, rmsre_series = instruments
        delta = float(ledger.samples) - samples.value()
        if delta > 0:
            samples.inc(delta)
        delta = float(ledger.skipped_samples) - skipped.value()
        if delta > 0:
            skipped.inc(delta)
        entries.set(ledger.num_entries)
        drift.set(ledger.last_drift_z())
        rmsre = ledger.last_rmsre_online()
        if rmsre is not None:
            rmsre_series.append(rmsre, index=iteration)

    def finish_run(self, context: RunContext) -> Optional[Dict[str, float]]:
        """Decision-amortization summary, surfaced on the run result."""
        del context
        state = self._state
        if state is None:
            return None
        stats: Dict[str, float] = {
            "amortize": bool(self._config.amortize),
            "warm_accepts": int(state.warm_accepts),
            "osteal_z_reused": int(state.osteal_z_reused),
            "osteal_z_evaluated": int(state.osteal_z_evaluated),
            "osteal_invalidations": int(state.osteal_invalidations),
        }
        if state.plan_cache is not None:
            stats.update(state.plan_cache.stats())
        else:
            stats.update({"hits": 0, "misses": 0, "invalidations": 0,
                          "evictions": 0, "entries": 0})
        if state.ledger is not None:
            state.ledger.seal(
                (
                    state.online_rmsre.value
                    if state.online_rmsre.count else None
                ),
                skipped=state.online_rmsre.skipped,
            )
        return stats

    # ------------------------------------------------------------------
    def _observe_cost_model(
        self,
        context: RunContext,
        features: Sequence,
        workloads: np.ndarray,
        cost_model: Optional[_PredictionMemo] = None,
    ) -> None:
        """Score the learned ``g`` against ground truth, online.

        One sample per fragment with active edges, exactly the
        granularity the FSteal coefficients use — the running RMSRE is
        the deployment-time counterpart of Table V's training loss.
        Runs when a metrics registry or the decision ledger is
        attached; the ledger records every sample in feed order so the
        final RMSRE reconstructs bit-identically from its entries.
        """
        state = self._state
        metrics = context.metrics
        ledger = state.ledger
        device = context.timing.device_model
        if cost_model is None:
            cost_model = _PredictionMemo(self._cost_model)
        for fragment, feats in enumerate(features):
            if workloads[fragment] == 0 or feats.total_edges == 0:
                continue
            predicted = cost_model.edge_cost_seconds(feats)
            actual = device.true_edge_cost(feats)
            state.online_rmsre.update(predicted, actual)
            if ledger is not None:
                ledger.record_sample(
                    fragment,
                    int(context.fragment_worker[fragment]),
                    feats,
                    predicted,
                    actual,
                )
        if metrics.enabled and state.online_rmsre.count:
            metrics.gauge(
                "costmodel.rmsre_online",
                "running RMSRE of the learned g vs ground truth",
            ).set(state.online_rmsre.value)
            metrics.gauge("costmodel.samples").set(state.online_rmsre.count)
            metrics.gauge(
                "costmodel.samples_skipped",
                "RMSRE updates dropped for non-positive actual cost",
            ).set(state.online_rmsre.skipped)

    # ------------------------------------------------------------------
    def observe(self, record: IterationRecord, context: RunContext) -> None:
        """Record feedback from the executed iteration."""
        super().observe(record, context)
        state = self._state
        if state is None:
            return
        state.prev_wall = record.wall_seconds
        if record.num_active > 0 and record.breakdown.sync > 0:
            observed_p = record.breakdown.sync / record.num_active
            state.p_estimate = 0.5 * state.p_estimate + 0.5 * observed_p
        if state.ledger is not None:
            busy = np.asarray(record.busy_seconds, dtype=np.float64)
            state.ledger.backfill(
                record.iteration,
                wall_seconds=record.wall_seconds,
                critical_busy_seconds=(
                    float(busy.max()) if busy.size else 0.0
                ),
                compute_seconds=record.breakdown.compute,
                num_active=record.num_active,
            )

    # ------------------------------------------------------------------
    def on_fault(self, event: FaultEvent, context: RunContext) -> None:
        """Rebuild machine-derived state after an injected fault.

        The engine has already applied the fault's semantics
        (``fragment_worker`` eviction, ``context.timing`` swap); this
        hook keeps the arbitrator's own derived structures — comm-cost
        matrix, reduction tree, group membership, z(m) memos —
        consistent with the degraded machine. Warm FSteal assignments
        survive on purpose: ``repair_assignment`` pulls work off
        forbidden (dead) workers, so the next solve still starts warm.
        """
        state = self._state
        if state is None or context.chaos is None:
            return
        if state.ledger is not None:
            worker = event.spec.params.get("worker")
            state.ledger.record_fault(
                iteration=event.iteration,
                kind=event.kind,
                worker=None if worker is None else int(worker),
                heir=(
                    int(event.detail["heir"])
                    if event.kind == "kill_worker" else None
                ),
            )
        if event.kind == "kill_worker":
            dead = int(event.spec.params["worker"])
            heir = int(event.detail["heir"])
            state.heirs[dead] = heir
            was_active = dead in state.active
            state.active = [w for w in state.active if w != dead]
            if was_active and heir not in state.active:
                # the dead worker owned fragments; they moved to the
                # heir, who therefore joins the communication group
                state.active = sorted(state.active + [heir])
            state.group_size = len(state.active)
            self._rebuild_machine_state(context, remeasure=False)
        elif event.kind == "degrade_link":
            self._rebuild_machine_state(context, remeasure=True)

    def _rebuild_machine_state(
        self, context: RunContext, remeasure: bool
    ) -> None:
        """Re-derive comm costs and the reduction tree post-fault."""
        state = self._state
        chaos = context.chaos
        topology = chaos.topology
        if remeasure:
            state.comm_cost = measure_comm_cost_matrix(
                topology,
                repro_config.BYTES_PER_EDGE,
                seed=BANDWIDTH_SEED,
            )
        alive = chaos.alive_workers()
        if len(alive) == topology.num_gpus:
            state.tree = make_reduction_tree(topology)
        else:
            state.tree = _EvictedTree(topology, alive, state.heirs)
        if state.worker_nodes is not None:
            reps = getattr(state.tree, "representatives", None)
            # a machine degraded to a single surviving node has no
            # hierarchical fold left: every survivor may steal freely
            state.node_reps = list(reps) if reps else list(alive)
        # z(m) memos and the OSteal backoff price the *old* machine;
        # force a fresh evaluation at the next opportunity
        state.osteal_z = LruDict(16)
        state.osteal_last_fp = None
        state.osteal_backoff = 0
        state.last_osteal_iteration = -(10**9)

    # ------------------------------------------------------------------
    def _osteal_triggered(
        self, iteration: int, state: _RunState, total_workload: int
    ) -> bool:
        folded = state.group_size < len(state.comm_cost)
        # A folded group must react immediately when the frontier
        # explodes — waiting out the cooldown would serialize a wide
        # phase on too few GPUs.
        if folded and total_workload > 4 * max(
            1, state.workload_at_decision
        ):
            return True
        cooldown = max(state.osteal_backoff, self._config.osteal_cooldown)
        if iteration - state.last_osteal_iteration < cooldown:
            return False
        in_long_tail = state.prev_wall < self._config.t3_runtime_seconds
        return in_long_tail or folded

    @staticmethod
    def _static_makespan(
        costs: np.ndarray, workloads: np.ndarray, fragment_worker: np.ndarray
    ) -> float:
        """Makespan of the no-steal assignment under the same costs."""
        num_workers = costs.shape[1]
        finish = np.zeros(num_workers)
        for fragment, load in enumerate(workloads.tolist()):
            if load == 0:
                continue
            worker = int(fragment_worker[fragment])
            finish[worker] += costs[fragment, worker] * load
        return float(finish.max()) if num_workers else 0.0

    def _fsteal_triggered(
        self, workloads: np.ndarray, context: RunContext, state: _RunState
    ) -> bool:
        per_worker = np.zeros(context.num_workers, dtype=np.int64)
        np.add.at(per_worker, context.fragment_worker, workloads)
        active_loads = per_worker[state.active]
        if active_loads.size <= 1:
            return False
        heaviest = int(active_loads.max())
        gap = heaviest - int(active_loads.min())
        return (
            heaviest >= self._config.t1_min_edges
            and gap >= self._config.t2_imbalance_edges
            and gap >= self._config.t2_imbalance_ratio * heaviest
        )

    def _realize(
        self,
        context: RunContext,
        fragment_frontiers: Sequence[Frontier],
        workloads: np.ndarray,
        fsteal_solution,
    ) -> tuple[List[WorkChunk], int, int, int]:
        """Turn the decision into engine chunks; count stolen work."""
        graph = context.graph
        state = self._state
        metrics = context.metrics
        steal_pairs = remote_edges = hub_hits = inter_counter = None
        if metrics.enabled:
            steal_pairs = metrics.counter(
                "steal.edges_by_pair",
                "edges stolen, labelled by (home GPU, executing GPU)",
            )
            remote_edges = metrics.counter(
                "hubcache.remote_edges",
                "stolen edges that would cross NVLink without caching",
            )
            hub_hits = metrics.counter(
                "hubcache.hit_edges",
                "stolen edges served from the local hub cache",
            )
            if state.worker_nodes is not None:
                inter_counter = metrics.counter(
                    "steal.inter_node_edges",
                    "stolen edges crossing the inter-node fabric",
                )
        worker_nodes = state.worker_nodes
        chunks: List[WorkChunk] = []
        stolen_edges = 0
        migrated = 0
        inter_node_stolen = 0
        if fsteal_solution is None:
            for fragment, frontier in enumerate(fragment_frontiers):
                if not frontier and workloads[fragment] == 0:
                    continue
                worker = int(context.fragment_worker[fragment])
                hub = self._hub_edges(context, fragment, worker,
                                      frontier.vertices)
                chunks.append(
                    WorkChunk(
                        owner=fragment,
                        worker=worker,
                        vertices=frontier.vertices,
                        edges=int(workloads[fragment]),
                        hub_edges=hub,
                    )
                )
                home = int(context.fragment_home[fragment])
                if worker != home:
                    stolen_edges += int(workloads[fragment])
                    migrated += frontier.size
                    if (worker_nodes is not None
                            and worker_nodes[home]
                            != worker_nodes[worker]):
                        inter_node_stolen += int(workloads[fragment])
                        if inter_counter is not None:
                            inter_counter.inc(int(workloads[fragment]))
                    if steal_pairs is not None:
                        steal_pairs.inc(int(workloads[fragment]),
                                        home=home, worker=worker)
                        remote_edges.inc(int(workloads[fragment]))
                        hub_hits.inc(hub)
            return chunks, stolen_edges, migrated, inter_node_stolen

        for fragment, frontier in enumerate(fragment_frontiers):
            if not frontier and workloads[fragment] == 0:
                continue
            for item in self._fragment_assignments(
                graph, fragment, frontier,
                fsteal_solution.assignment[fragment],
                int(workloads[fragment]),
            ):
                hub = self._hub_edges(context, item.owner, item.worker,
                                      item.vertices)
                chunks.append(
                    WorkChunk(
                        owner=item.owner,
                        worker=item.worker,
                        vertices=item.vertices,
                        edges=item.edges,
                        hub_edges=hub,
                    )
                )
                home = int(context.fragment_home[item.owner])
                if item.worker != home:
                    stolen_edges += item.edges
                    migrated += item.vertices.size
                    if (worker_nodes is not None
                            and worker_nodes[home]
                            != worker_nodes[item.worker]):
                        inter_node_stolen += item.edges
                        if inter_counter is not None:
                            inter_counter.inc(item.edges)
                    if steal_pairs is not None:
                        steal_pairs.inc(item.edges, home=home,
                                        worker=item.worker)
                        remote_edges.inc(item.edges)
                        hub_hits.inc(hub)
        return chunks, stolen_edges, migrated, inter_node_stolen

    @staticmethod
    def _fragment_assignments(
        graph,
        fragment: int,
        frontier: Frontier,
        quotas: np.ndarray,
        workload: int,
    ):
        """Realize one fragment's quota row as vertex assignments.

        Normally Algorithm 1's prefix-sum/sorted-search selection; when
        the effective workload is decoupled from the frontier's
        out-edges (pull-mode BFS iterations), quotas are realized as
        edge-count-only chunks instead — there is no frontier vertex
        list to slice.
        """
        if frontier and frontier.work(graph) == workload:
            return select_vertices(graph, fragment, frontier, quotas)
        empty = np.empty(0, dtype=np.int64)
        return [
            VertexAssignment(
                owner=fragment, worker=j, vertices=empty,
                edges=int(quota),
            )
            for j, quota in enumerate(np.asarray(quotas))
            if quota > 0
        ]

    def _hub_edges(
        self,
        context: RunContext,
        fragment: int,
        worker: int,
        vertices: np.ndarray,
    ) -> int:
        state = self._state
        if state is None or state.hub_cache is None:
            return 0
        if worker == int(context.fragment_home[fragment]):
            return 0  # local access needs no cache
        return state.hub_cache.hub_edges(context.graph, vertices)

    # --- deterministic decision-cost model -----------------------------
    @staticmethod
    def _modeled_fsteal_seconds(num_workers: int, frontier_size: int) -> float:
        """FSteal decision latency: solver + policy broadcast.

        Independent of the frontier size — feature extraction is
        charged separately per scanned vertex (``frontier_size`` is
        kept in the signature for that call-site symmetry).
        """
        del frontier_size
        return 1.2e-4 + 1e-6 * num_workers * num_workers

    @staticmethod
    def _modeled_fsteal_cache_seconds(num_workers: int) -> float:
        """FSteal decision latency on a plan-cache hit.

        A hit skips the solve entirely: fingerprint hashing, the
        repair rescale, and the feasibility re-validation remain —
        all linear-ish in the assignment matrix, far below a solve.
        """
        return 2e-5 + 2.5e-7 * num_workers * num_workers

    #: Modeled cost of one fresh z(m) evaluation in the bracket search
    #: (same per-size rate the exhaustive scan model charges).
    _OSTEAL_EVAL_SECONDS = 8e-5

    @staticmethod
    def _modeled_osteal_seconds(num_workers: int) -> float:
        """OSteal decision latency: one solve per candidate group size."""
        return num_workers * 8e-5
