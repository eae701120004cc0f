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
virtual clock from a deterministic model (Table IV); the host time the
decision really took is reported beside it as
``real_decision_seconds`` and never enters virtual time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import config as repro_config
from repro.core.costmodel import CostModel, model_label, resolve_cost_model
from repro.core.fsteal import build_cost_matrix
from repro.core.decision_cache import (
    LruDict,
    PlanCache,
    quantize,
    repair_assignment,
)
from repro.core.hubcache import HubCache
from repro.core.milp import FStealProblem, FStealSolution, make_solver
from repro.core.osteal import OStealDecision, plan_osteal
from repro.core.reduction_tree import ReductionTree
from repro.errors import EngineError
from repro.hardware.microbench import measure_comm_cost_matrix
from repro.obs.ledger import AuditRecord, Ledger, PredictionAudit
from repro.runtime.frontier import FragmentTable, Frontier
from repro.runtime.metrics import IterationRecord
from repro.runtime.scheduler import (
    IterationPlan,
    RunContext,
    Scheduler,
    realize_plan,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.controller import FaultEvent

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
        predicted-vs-measured cost audit. A decision stores references
        only; the audit is scored once, when read (at ``finish_run``
        under a metrics registry, else by the ledger's first reader).
        Entries hold virtual-clock and model quantities only, so
        recording never perturbs simulated time; ``repro explain``
        renders the result.
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
    # --- decision amortization ---------------------------------------
    plan_cache: Optional[PlanCache] = None
    # fingerprints FSteal declined: one that misses again is solved
    declined: LruDict = field(default_factory=lambda: LruDict(64))
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
    # the prediction audit, when anything reads it (ledger or metrics)
    audit: Optional[PredictionAudit] = None


class _PredictionMemo:
    """One decision's view of the cost model, predictions shared.

    OSteal's fingerprint coefficients and the FSteal cost matrices all
    ask for ``g`` of the same per-fragment features within one ``plan``
    call. The first ask predicts every fragment with active edges in
    one batched
    :meth:`~repro.core.costmodel.CostModel.edge_costs_seconds`
    (bit-identical to single predictions by that method's contract),
    keyed by the features' value. Scoped to one decision, so a refit
    model never serves stale values.
    """

    def __init__(self, model: CostModel, features: Sequence) -> None:
        self._model = model
        self._features = features
        self._memo: Optional[Dict[object, float]] = None

    def edge_cost_seconds(self, features) -> float:
        if self._memo is None:
            live = [f for f in self._features if f.total_edges != 0]
            self._memo = dict(zip(live, self._model.edge_costs_seconds(live)))
        value = self._memo.get(features)
        if value is None:
            value = self._model.edge_cost_seconds(features)
        return value


@dataclass(slots=True)
class _Decision:
    """One ``plan`` call's working record, filled stage by stage.

    ``solution`` is the ``X`` that gets realized (``None`` means
    owner-local processing); ``solved`` is what FSteal priced before
    the gate, kept so the ledger can show a rejected plan (``bound``
    instead, when FSteal declined to solve).
    ``audit`` and the host-clock ``*_host_seconds`` fields exist for
    :meth:`GumScheduler._record` alone.
    """

    iteration: int
    workloads: np.ndarray
    features: list
    cost_model: _PredictionMemo
    overhead: float  # modeled decision seconds charged so far
    audit: Optional[AuditRecord] = None
    osteal: Optional[OStealDecision] = None
    prev_group_size: int = 0
    osteal_host_seconds: float = 0.0
    solution: Optional[FStealSolution] = None
    solved: Optional[FStealSolution] = None
    fsteal_host_seconds: Optional[float] = None
    fsteal_overhead: float = 0.0
    static_makespan: Optional[float] = None
    bound: Optional[float] = None
    gain: Optional[float] = None
    stolen_edges: int = 0
    migrated: int = 0
    inter_node_stolen: int = 0


#: Run-summary key -> registry counter name of each amortization counter.
_DECISION_COUNTERS = {
    "warm_accepts": "decision.warm.accepts",
    "osteal_z_reused": "decision.osteal.z_reused",
    "osteal_z_evaluated": "decision.osteal.z_evaluated",
    "osteal_invalidations": "decision.osteal.invalidations",
    "hits": "decision.cache.hits",
    "misses": "decision.cache.misses",
    "invalidations": "decision.cache.invalidations",
    "evictions": "decision.cache.evictions",
}


def _raise_counter(counter, total) -> None:
    """Bring a monotone registry counter up to a cumulative ``total``."""
    delta = float(total) - counter.value()
    if delta > 0:
        counter.inc(delta)


class GumScheduler(Scheduler):
    """The GUM coordinator policy (OSteal before FSteal, Section V)."""

    name = "gum"

    def __init__(self, config: Optional[GumConfig] = None) -> None:
        self._config = config or GumConfig()
        self._cost_model = resolve_cost_model(self._config.cost_model)
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
        # one audit per run, shared by the ledger and the gauges
        audit = (
            PredictionAudit(self._cost_model)
            if self._config.ledger or context.metrics.enabled else None
        )
        self._state = _RunState(
            comm_cost=comm_cost,
            tree=ReductionTree(topology),
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
                    model=model_label(self._cost_model),
                    amortize=self._config.amortize,
                    fingerprint_tolerance=AMORTIZE_TOLERANCE,
                    audit=audit,
                )
                if self._config.ledger
                else None
            ),
            audit=audit,
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
        """Produce this iteration's work assignment.

        Five stages fill one :class:`_Decision`: :meth:`_audit` →
        :meth:`_decide_osteal` → :meth:`_decide_fsteal` →
        :func:`~repro.runtime.scheduler.realize_plan` → :meth:`_record`.
        Only the last one talks to the run's observers, so nothing
        recorded can steer a decision.
        """
        state = self._state
        if state is None:
            raise EngineError("scheduler used before begin_run")
        started = time.perf_counter()
        d = self._audit(iteration, fragment_frontiers, workloads, context)
        self._decide_osteal(d, context)
        self._decide_fsteal(d, context)
        if context.chaos is not None:
            from repro.chaos.controller import SOLVER_TIMEOUT_SECONDS

            # each injected solver timeout burned the abandoned solve's
            # budget before a fallback backend could take over
            d.overhead += (
                SOLVER_TIMEOUT_SECONDS
                * context.chaos.drain_timeout_charges()
            )
        plan = realize_plan(
            context, fragment_frontiers, workloads,
            quotas=None if d.solution is None else d.solution.assignment,
            hub_cache=state.hub_cache,
            active_workers=list(state.active),
            decision_seconds=d.overhead,
            fsteal_applied=d.solution is not None,
            osteal_group_size=state.group_size,
        )
        plan.real_decision_seconds = time.perf_counter() - started
        self._record(d, plan, context)
        plan.stolen_edges = d.stolen_edges
        return plan

    # --- stage 1: features + prediction audit -------------------------
    def _audit(
        self,
        iteration: int,
        fragment_frontiers: Sequence[Frontier],
        workloads: np.ndarray,
        context: RunContext,
    ) -> _Decision:
        """Open the decision: frontier features and the model audit.

        The audit holds one sample per fragment with active edges —
        exactly the granularity the FSteal coefficients use, so its
        running RMSRE is the deployment-time counterpart of Table V's
        training loss. Only references are appended, and only when
        something reads them (``state.audit``, which scores on read).
        """
        state = self._state
        # the superstep's table: the engine prices the plan from these
        # same features, so the scan happens exactly once
        table = FragmentTable.of(context.graph, fragment_frontiers)
        features = table.features
        d = _Decision(
            iteration=iteration,
            workloads=workloads,
            features=features,
            cost_model=_PredictionMemo(self._cost_model, features),
            # feature extraction is a scan over active vertices (Exp-3)
            overhead=2.5e-8 * table.vertices.size,
        )
        if state.audit is not None:
            # the worker is read now: OSteal may re-own the fragment;
            # the truth is the table's g* column, which pricing reads
            d.audit = state.audit.add([
                (fragment, worker, feats, actual)
                for fragment, (feats, load, worker, actual) in enumerate(zip(
                    features, workloads.tolist(),
                    context.fragment_worker.tolist(),
                    table.edge_costs(context.timing.device_model),
                ))
                if load and feats.total_edges
            ])
        return d

    # --- stage 2: ownership stealing ----------------------------------
    def _decide_osteal(self, d: _Decision, context: RunContext) -> None:
        """Re-evaluate the group size when the long-tail trigger fires."""
        state = self._state
        cooldown = self._config.osteal_cooldown
        total_workload = int(d.workloads.sum())
        if not (self._config.osteal and self._osteal_triggered(
            d.iteration, state, total_workload
        )):
            return
        d.prev_group_size = state.group_size
        with context.tracer.span(
            "gum.osteal", track="coordinator", cat="osteal",
            iteration=d.iteration, workload=total_workload,
        ) as span:
            solve_started = time.perf_counter()
            pick = d.osteal = self._plan_osteal(d, context)
            span.set(
                group_size=pick.group_size,
                prev_group_size=d.prev_group_size,
                estimated_cost=pick.estimated_cost,
                estimated_kernel=pick.estimated_kernel,
                p_estimate=state.p_estimate,
            )
            d.osteal_host_seconds = time.perf_counter() - solve_started
        if self._config.amortize:
            # charge only the solves actually performed: the bracket
            # search + z-cache makes most sizes free
            d.overhead += self._OSTEAL_EVAL_SECONDS * pick.evaluated_sizes
        else:
            d.overhead += self._modeled_osteal_seconds(context.num_workers)
        state.last_osteal_iteration = d.iteration
        state.workload_at_decision = total_workload
        if pick.group_size != state.group_size:
            state.osteal_backoff = cooldown
        else:
            # stable decision: back off exponentially so long tails are
            # not charged an enumeration every few iterations
            state.osteal_backoff = min(
                max(state.osteal_backoff, cooldown) * 2, 8 * cooldown
            )
        state.group_size = pick.group_size
        state.active = pick.active_workers
        context.fragment_worker[:] = pick.ownership
        d.solution = pick.fsteal

    # --- stage 3: frontier stealing -----------------------------------
    def _decide_fsteal(self, d: _Decision, context: RunContext) -> None:
        """Solve (or adopt OSteal's) ``X`` and pass it through the gate."""
        state = self._state
        if not (self._config.fsteal and self._fsteal_triggered(
            d.workloads, context, state
        )):
            # FSteal is off or its thresholds are unmet: owner-local
            # processing, even when OSteal just enumerated an X
            d.solution = None
            return
        num_workers = context.num_workers
        gated = d.solution is None
        if gated:
            with context.tracer.span(
                "gum.fsteal.milp", track="coordinator", cat="fsteal",
                iteration=d.iteration,
                solver=getattr(state.solver, "name",
                               type(state.solver).__name__),
            ) as span:
                solve_started = time.perf_counter()
                problem = FStealProblem(state.tree.restrict(
                    build_cost_matrix(
                        state.comm_cost,
                        d.features,
                        d.cost_model,
                        context.fragment_home,
                        allowed_workers=state.active,
                    ), context.fragment_home,
                ), d.workloads)
                d.static_makespan = self._static_makespan(
                    problem.rows, d.workloads, context.fragment_worker
                )
                d.fsteal_overhead = self._modeled_fsteal_seconds(num_workers)
                # declining skips a solver call, and an armed chaos
                # solver timeout is consumed per call: never while one is
                chaos = context.chaos
                armed = chaos is not None and chaos.solver_timeout_armed()
                d.solution = self._solve(problem, None if armed else d)
                if d.solution is None:
                    span.set(declined=True, bound=d.bound)
                else:
                    span.set(
                        objective=d.solution.objective,
                        solver=d.solution.solver,
                        warm_started=d.solution.warm_started,
                    )
                d.fsteal_host_seconds = time.perf_counter() - solve_started
        d.solved = d.solution
        modeled = (
            self._modeled_fsteal_cache_seconds
            if d.solved is not None and d.solved.solver == "plan-cache"
            else self._modeled_fsteal_seconds
        )
        d.fsteal_overhead = modeled(num_workers)
        d.overhead += d.fsteal_overhead
        # cost-based gate (Example 5's spirit, made quantitative):
        # commit only when the predicted makespan gain covers the
        # decision overhead — near-balanced iterations stay put. A
        # declined decision is the gate's rejection, proven unsolved.
        if gated:
            if d.solved is not None:
                d.gain = d.static_makespan - d.solved.objective
            if d.solved is None or d.gain <= d.fsteal_overhead:
                d.solution = None

    # --- stage 5: the one place observers are fed ---------------------
    def _record(self, d: _Decision, plan: IterationPlan,
                context: RunContext) -> None:
        """Feed the finished decision to the metrics and the ledger.

        The only stage that touches ``context.metrics`` or the ledger's
        recording protocol (``begin`` with the decision's audit record →
        ``record_osteal`` → ``record_fsteal`` → ``commit``). Steal
        totals are derived from the realized plan.
        """
        state = self._state
        ledger = state.ledger
        metrics = context.metrics if context.metrics.enabled else None
        self._tally_steals(d, plan, context, metrics)
        if ledger is not None:
            ledger.begin(
                d.iteration,
                d.workloads,
                d.audit,
                fingerprint=self._ledger_fingerprint(
                    d.features, d.workloads
                ),
            )
            if d.osteal is not None:
                ledger.record_osteal(
                    group_size=d.osteal.group_size,
                    prev_group_size=d.prev_group_size,
                    candidates=len(self._candidate_sizes(context)),
                    evaluated_sizes=d.osteal.evaluated_sizes,
                    reused_sizes=d.osteal.reused_sizes,
                    estimated_cost=d.osteal.estimated_cost,
                    estimated_kernel=d.osteal.estimated_kernel,
                    p_estimate=state.p_estimate,
                )
            solved = d.solved
            if solved is not None or d.bound is not None:
                ledger.record_fsteal(
                    solver=state.solver.name if solved is None
                    else solved.solver,
                    cache_status=self._cache_status(solved),
                    objective=None if solved is None else solved.objective,
                    warm_started=solved is not None and solved.warm_started,
                    static_makespan=d.static_makespan,
                    gain=d.gain,
                    modeled_overhead=d.fsteal_overhead,
                    rejected_by_gate=d.solution is None,
                    lower_bound=d.bound,
                )
            ledger.commit(
                group_size=state.group_size,
                active_workers=state.active,
                fsteal_applied=d.solution is not None,
                stolen_edges=d.stolen_edges,
                migrated_vertices=d.migrated,
                inter_node_stolen_edges=d.inter_node_stolen,
            )
        if metrics is not None:
            self._publish_metrics(metrics, d)

    def _tally_steals(self, d: _Decision, plan: IterationPlan,
                      context: RunContext, metrics) -> None:
        """Derive the steal totals (and counters) from the plan's rows."""
        topology = self._state.tree.topology
        nodes = topology.node_assignment.tolist()
        if metrics is not None:
            pairs = metrics.counter("steal.edges_by_pair")
            remote = metrics.counter("hubcache.remote_edges")
            hub_hits = metrics.counter("hubcache.hit_edges")
            if topology.num_nodes > 1:
                inter_node = metrics.counter("steal.inter_node_edges")
        for home, worker, edges, hub, moved in plan.stolen_rows(
            context.fragment_home
        ):
            crosses = nodes[home] != nodes[worker]
            d.stolen_edges += edges
            d.migrated += moved
            if crosses:
                d.inter_node_stolen += edges
            if metrics is not None:
                pairs.inc(edges, home=home, worker=worker)
                remote.inc(edges)
                hub_hits.inc(hub)
                if crosses:
                    inter_node.inc(edges)

    def _publish_metrics(self, metrics, d: _Decision) -> None:
        """Mirror one recorded decision into the live registry (the
        audit's gauges are set once, at :meth:`finish_run`)."""
        if d.osteal is not None:
            metrics.counter("osteal.evaluations").inc()
            metrics.histogram("osteal.solve_seconds").observe(
                d.osteal_host_seconds
            )
            if d.osteal.group_size != d.prev_group_size:
                metrics.counter("osteal.group_changes").inc()
        if d.fsteal_host_seconds is not None:
            metrics.histogram("fsteal.solve_seconds").observe(
                d.fsteal_host_seconds
            )
        if d.static_makespan is not None:
            if d.gain is not None:
                metrics.histogram("fsteal.makespan_gain_seconds").observe(
                    d.gain
                )
            if d.solution is None:
                metrics.counter("fsteal.rejected_by_gate").inc()

    # --- decision amortization ----------------------------------------
    def _solve(
        self, problem: FStealProblem, decision: Optional[_Decision] = None
    ) -> Optional[FStealSolution]:
        """Solve one FSteal instance, amortized unless in exact mode.

        Order of attack: (1) plan cache — a fingerprint hit returns the
        repaired, re-validated previous plan priced against the *live*
        costs (``solver="plan-cache"``); (2) on a miss for the gated
        ``decision``, decline when no solve could pass its gate
        (returns ``None``, see :meth:`_declines`) — unless the same
        fingerprint was declined before: a recurring instance is
        solved and cached, for its repeats to hit; (3) warm-started
        solve — the previous iteration's assignment, repaired to the
        current workloads, seeds the configured solver; the result is
        cached for the next iteration either way.
        """
        state = self._state
        cache = state.plan_cache
        if cache is None:
            return state.solver.solve(problem)
        key = cache.fingerprint(problem.costs, problem.workloads,
                                sorted(set().union(*problem.allowed)))
        cached = cache.fetch(key, problem)
        if cached is not None:
            state.warm_assignment = np.array(cached, dtype=np.int64)
            return FStealSolution(
                assignment=state.warm_assignment,
                objective=problem.objective(cached),
                solver="plan-cache",
            )
        if (decision is not None and key not in state.declined
                and self._declines(problem, decision)):
            state.declined.put(key, True)
            return None
        warm = None
        if state.warm_assignment is not None:
            warm = repair_assignment(state.warm_assignment, problem)
        solution = state.solver.solve(problem, warm_start=warm)
        if solution.warm_started:
            state.warm_accepts += 1
        cache.store(key, solution.assignment)
        state.warm_assignment = solution.assignment
        return solution

    @staticmethod
    def _declines(problem: FStealProblem, d: _Decision) -> bool:
        """Whether no solve of ``problem`` can pass ``d``'s gain gate:
        every objective is at least the certified
        :meth:`~repro.core.milp.FStealProblem.lower_bound`, so the gain
        is at most ``static - bound``. Records the bound on ``d``."""
        bound = problem.lower_bound()
        if d.static_makespan - bound > d.fsteal_overhead:
            return False
        d.bound = bound
        return True

    def _candidate_sizes(self, context: RunContext) -> range:
        """Group sizes Algorithm 2 may pick: ``1..`` surviving workers."""
        survivors = context.num_workers
        if context.chaos is not None and context.chaos.dead_workers:
            survivors = len(context.chaos.alive_workers())
        return range(1, survivors + 1)

    def _plan_osteal(self, d: _Decision, context: RunContext):
        """Run Algorithm 2 — amortized (bracket + z-cache) or exact."""
        state = self._state
        amortized = {}
        if self._config.amortize:
            # z(m) reuse is sound only while the decision inputs are
            # the same up to tolerance: fingerprint the workload
            # vector, the per-fragment cost-model coefficients, and the
            # sync estimate, quantized in one pass.
            tol = AMORTIZE_TOLERANCE
            fp = quantize(d.workloads.tolist() + [
                0.0 if f.total_edges == 0
                else d.cost_model.edge_cost_seconds(f)
                for f in d.features
            ] + [state.p_estimate], tol)
            if (state.osteal_last_fp is not None
                    and fp != state.osteal_last_fp):
                state.osteal_invalidations += 1
            state.osteal_last_fp = fp
            amortized = dict(
                search="bracket",
                z_cache=state.osteal_z.get_or_create(fp, dict),
                start_size=state.group_size or None,
                solve=self._solve,
            )
        pick = plan_osteal(
            state.tree,
            state.comm_cost,
            d.features,
            d.workloads,
            context.fragment_home,
            d.cost_model,
            state.solver,
            state.p_estimate,
            candidate_sizes=self._candidate_sizes(context),
            tracer=context.tracer,
            **amortized,
        )
        if self._config.amortize:
            state.osteal_z_reused += pick.reused_sizes
            state.osteal_z_evaluated += pick.evaluated_sizes
        return pick

    def _counters(self) -> Dict[str, int]:
        """Cumulative amortization counters, by run-summary key."""
        state = self._state
        cache = (
            state.plan_cache.stats() if state.plan_cache is not None
            else dict.fromkeys(
                ("hits", "misses", "invalidations", "evictions",
                 "entries"), 0)
        )
        return {
            "warm_accepts": int(state.warm_accepts),
            "osteal_z_reused": int(state.osteal_z_reused),
            "osteal_z_evaluated": int(state.osteal_z_evaluated),
            "osteal_invalidations": int(state.osteal_invalidations),
            **cache,
        }

    # --- decision ledger ----------------------------------------------
    @staticmethod
    def _ledger_fingerprint(
        features: Sequence, workloads: np.ndarray
    ) -> Optional[tuple]:
        """Raw snapshot of this decision's inputs, for fingerprinting.

        The frontier features plus workloads, handed to the ledger as
        references — it builds the vectors, concatenates and
        log-buckets them lazily with the same quantization the plan
        cache keys on, so two decisions with the same resolved
        fingerprint saw the same problem up to the amortization
        tolerance. (The features are immutable tuples; the workload
        vector is copied, as a list, because the engine reuses it.)
        """
        if not features:
            return None
        return features, workloads.tolist()

    @staticmethod
    def _cache_status(solution: Optional[FStealSolution]) -> str:
        """Ledger taxonomy of one FSteal decision: live/warm/cached, or
        declined when there was no solve."""
        if solution is None:
            return "declined"
        if solution.solver == "plan-cache":
            return "cached"
        if solution.warm_started:
            return "warm"
        return "live"

    def finish_run(self, context: RunContext) -> Optional[Dict[str, float]]:
        """Decision-amortization summary, surfaced on the run result.

        With a registry attached, the amortization counters and the
        prediction audit's gauges are published here, once (the audit
        is scored when first read).
        """
        state = self._state
        if state is None:
            return None
        counters = self._counters()
        metrics = context.metrics
        if metrics.enabled and self._config.amortize:
            for key, name in _DECISION_COUNTERS.items():
                _raise_counter(metrics.counter(name), counters[key])
        if metrics.enabled and state.audit is not None:
            online = state.audit.score().online
            if online.count:
                metrics.gauge("costmodel.rmsre_online").set(online.value)
                metrics.gauge("costmodel.samples").set(online.count)
                metrics.gauge("costmodel.samples_skipped").set(
                    online.skipped
                )
            ledger = state.ledger
            if ledger is not None and ledger.num_entries:
                _raise_counter(metrics.counter("ledger.samples"),
                               online.count)
                _raise_counter(metrics.counter("ledger.skipped_samples"),
                               online.skipped)
                metrics.gauge("ledger.entries").set(ledger.num_entries)
                metrics.gauge("ledger.drift_z").set(state.audit.last_z)
        return {"amortize": bool(self._config.amortize), **counters}

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
            busy = record.busy_seconds
            state.ledger.backfill(
                record.iteration,
                wall_seconds=record.wall_seconds,
                critical_busy_seconds=float(max(busy)) if len(busy) else 0.0,
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
        state.tree = ReductionTree(
            topology, chaos.alive_workers(), state.heirs
        )
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
        costs, workloads: np.ndarray, fragment_worker: np.ndarray
    ) -> float:
        """Makespan of the no-steal assignment under the same costs
        (``costs`` as rows, or an array)."""
        finish = [0.0] * (len(costs[0]) if len(costs) else 0)
        for row, load, worker in zip(
            costs, workloads.tolist(), fragment_worker.tolist()
        ):
            if load:
                finish[worker] += row[worker] * load
        return float(max(finish)) if finish else 0.0

    def _fsteal_triggered(
        self, workloads: np.ndarray, context: RunContext, state: _RunState
    ) -> bool:
        per_worker = [0] * context.num_workers
        for worker, load in zip(
            context.fragment_worker.tolist(), workloads.tolist()
        ):
            per_worker[worker] += load
        active_loads = [per_worker[j] for j in state.active]
        if len(active_loads) <= 1:
            return False
        heaviest = max(active_loads)
        gap = heaviest - min(active_loads)
        return (
            heaviest >= self._config.t1_min_edges
            and gap >= self._config.t2_imbalance_edges
            and gap >= self._config.t2_imbalance_ratio * heaviest
        )

    # --- deterministic decision-cost model -----------------------------
    @staticmethod
    def _modeled_fsteal_seconds(num_workers: int) -> float:
        """FSteal decision latency: solver + policy broadcast.

        Independent of the frontier size — feature extraction is
        charged separately per scanned vertex.
        """
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