"""Ownership stealing — Algorithm 2 of the paper (Section IV-B).

OSteal trades parallelism against synchronization overhead: for every
candidate group size ``m`` it folds the reduction tree, solves the
restricted FSteal problem to estimate the kernel cost ``z(m)``, adds
the synchronization estimate ``p * m``, and keeps the cheapest policy
(Equation 4: ``E = z + p * m``).

``p`` is not a constant of the model — the scheduler estimates it from
*observed* synchronization time of previous iterations, exactly as the
paper prescribes ("a parameter that can be estimated during previous
iterations").

Two search strategies are offered. ``search="scan"`` is the verbatim
Algorithm 2 linear enumeration — every candidate ``m`` gets a full
FSteal solve. ``search="bracket"`` exploits the structure of the
objective: ``z(m)`` is non-increasing in ``m`` (a larger group can
always emulate a smaller one) while ``p * m`` is strictly increasing,
so ``E(m)`` is near-unimodal and a hill-walk from a starting bracket
finds the minimum after evaluating only a neighborhood, not the whole
range. Combined with a cross-iteration ``z_cache`` (valid while the
workload fingerprint is stable), steady-state tail iterations reuse
almost every ``z(m)`` instead of re-solving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, MutableMapping, Optional, Sequence

import numpy as np

from repro.core.costmodel import CostModel
from repro.core.fsteal import build_cost_matrix
from repro.core.milp import FStealProblem, FStealSolution, FStealSolver
from repro.core.reduction_tree import ReductionTree
from repro.errors import SolverError
from repro.graph.features import FrontierFeatures
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["OStealDecision", "plan_osteal"]


@dataclass(frozen=True)
class OStealDecision:
    """Chosen ownership policy for the coming iterations.

    ``evaluated_sizes``/``reused_sizes`` account the decision's cost:
    how many candidate group sizes required a fresh FSteal solve this
    call versus a cached ``z(m)`` from a previous iteration — the
    quantity the modeled-overhead clock charges (Table IV).
    """

    group_size: int
    active_workers: List[int]
    ownership: np.ndarray  # fragment -> worker
    estimated_cost: float  # z(m) + p*m, seconds
    estimated_kernel: float  # z(m) alone
    fsteal: FStealSolution  # the X realizing z(m)
    evaluated_sizes: int = 0  # fresh z(m) solves this call
    reused_sizes: int = 0  # z(m) served from the cross-iteration cache


def plan_osteal(
    tree: ReductionTree,
    comm_cost: np.ndarray,
    fragment_features: Sequence[FrontierFeatures],
    workloads: np.ndarray,
    fragment_home: np.ndarray,
    cost_model: CostModel,
    solver: FStealSolver,
    p_estimate: float,
    candidate_sizes: Optional[Sequence[int]] = None,
    tracer: Tracer = NULL_TRACER,
    search: str = "scan",
    z_cache: Optional[MutableMapping[int, float]] = None,
    start_size: Optional[int] = None,
    solve: Optional[Callable[[FStealProblem], FStealSolution]] = None,
) -> OStealDecision:
    """Algorithm 2: enumerate group sizes, return the cheapest policy.

    Parameters
    ----------
    tree:
        Reduction tree of the machine topology; its two-level policy
        restricts inter-node steals in every ``z(m)`` evaluation.
    comm_cost:
        Measured seconds-per-edge matrix between GPUs.
    fragment_features:
        Table-I features per fragment frontier (for ``g(W_i)``).
    workloads:
        ``l_i`` active edges per fragment.
    fragment_home:
        Fragment -> GPU holding its data.
    cost_model:
        Learned (or oracle) per-edge compute-cost model.
    solver:
        FSteal solver used to evaluate ``z(m)``.
    p_estimate:
        Current estimate of per-worker synchronization latency
        (seconds), from observed previous iterations.
    candidate_sizes:
        Group sizes to consider; defaults to ``1..n``.
    tracer:
        Observability hook; each Equation-4 evaluation is recorded as
        one ``osteal.enumerate`` span attribute (null by default).
    search:
        ``"scan"`` (default) — verbatim linear enumeration of every
        candidate; ``"bracket"`` — unimodal hill-walk from
        ``start_size`` over the sorted candidates.
    z_cache:
        Optional mutable ``m -> z(m)`` memo reused across iterations
        while the caller's workload fingerprint is stable. Only
        consulted by the bracket search; fresh evaluations are written
        back into it.
    start_size:
        Bracket-search starting point (typically the previous
        decision's group size); defaults to the largest candidate.
    solve:
        Override for evaluating one restricted FSteal instance
        (defaults to ``solver.solve``); the scheduler routes this
        through its plan cache so OSteal evaluations are amortized
        too.
    """
    num_workers = comm_cost.shape[0]
    sizes = (
        list(candidate_sizes)
        if candidate_sizes is not None
        else list(range(1, num_workers + 1))
    )
    if solve is None:
        solve = solver.solve

    def solve_size(m: int) -> FStealSolution:
        costs = tree.restrict(build_cost_matrix(
            comm_cost,
            fragment_features,
            cost_model,
            fragment_home,
            allowed_workers=tree.active_workers(m),
        ), fragment_home)
        return solve(FStealProblem(costs, workloads))

    if search == "scan":
        return _scan(tree, sizes, solve_size, p_estimate, tracer)
    if search == "bracket":
        return _bracket(
            tree, sizes, solve_size, p_estimate, tracer,
            z_cache=z_cache, start_size=start_size,
        )
    raise SolverError(
        f"unknown OSteal search {search!r}; known: 'scan', 'bracket'"
    )


def _scan(
    tree: ReductionTree,
    sizes: List[int],
    solve_size: Callable,
    p_estimate: float,
    tracer: Tracer,
) -> OStealDecision:
    """Verbatim Algorithm 2: solve ``z(m)`` for every candidate."""
    best: Optional[OStealDecision] = None
    estimates = {} if tracer.enabled else None
    with tracer.span("osteal.enumerate", track="coordinator",
                     cat="osteal", candidates=len(sizes),
                     search="scan") as span:
        for m in sizes:
            solution = solve_size(m)
            total = solution.objective + p_estimate * m
            if estimates is not None:
                estimates[f"m={m}"] = total
            if best is None or total < best.estimated_cost:
                best = OStealDecision(
                    group_size=m,
                    active_workers=tree.active_workers(m),
                    ownership=tree.ownership(m),
                    estimated_cost=total,
                    estimated_kernel=solution.objective,
                    fsteal=solution,
                    evaluated_sizes=len(sizes),
                )
        assert best is not None  # sizes is never empty
        span.set(chosen=best.group_size, estimates=estimates)
    return best


def _bracket(
    tree: ReductionTree,
    sizes: List[int],
    solve_size: Callable,
    p_estimate: float,
    tracer: Tracer,
    z_cache: Optional[MutableMapping[int, float]] = None,
    start_size: Optional[int] = None,
) -> OStealDecision:
    """Hill-walk over the near-unimodal ``E(m) = z(m) + p*m``.

    Starts at ``start_size`` (or the largest candidate) and walks
    toward the neighbor with the strictly smaller estimate until
    neither neighbor improves — a local minimum, which near-unimodality
    makes global. ``z(m)`` values are memoized within the call and,
    via ``z_cache``, across calls; the *chosen* size always gets a
    real solve this call so the returned plan is feasible against the
    live workloads even when its ``z`` came from the cache.
    """
    order = sorted(set(int(m) for m in sizes))
    zvals: dict = {}  # m -> z(m), this call
    solutions: dict = {}  # m -> FStealSolution, fresh only
    counts = {"evaluated": 0, "reused": 0}

    def z_of(m: int) -> float:
        if m in zvals:
            return zvals[m]
        if z_cache is not None and m in z_cache:
            counts["reused"] += 1
            zvals[m] = float(z_cache[m])
            return zvals[m]
        solution = solutions[m] = solve_size(m)
        counts["evaluated"] += 1
        zvals[m] = float(solution.objective)
        if z_cache is not None:
            z_cache[m] = zvals[m]
        return zvals[m]

    def estimate(m: int) -> float:
        return z_of(m) + p_estimate * m

    estimates = {} if tracer.enabled else None
    with tracer.span("osteal.enumerate", track="coordinator",
                     cat="osteal", candidates=len(order),
                     search="bracket") as span:
        if start_size is not None and start_size in order:
            pos = order.index(int(start_size))
        else:
            pos = len(order) - 1
        while True:
            cur = estimate(order[pos])
            left = estimate(order[pos - 1]) if pos > 0 else np.inf
            right = (
                estimate(order[pos + 1])
                if pos < len(order) - 1
                else np.inf
            )
            if left < cur and left <= right:
                pos -= 1
            elif right < cur:
                pos += 1
            else:
                break
        chosen = order[pos]
        # the walk may have priced the winner from the cache alone:
        # materialize a real plan for it against the live workloads
        if chosen not in solutions:
            solution = solutions[chosen] = solve_size(chosen)
            counts["evaluated"] += 1
            zvals[chosen] = float(solution.objective)
            if z_cache is not None:
                z_cache[chosen] = zvals[chosen]
        solution = solutions[chosen]
        if estimates is not None:
            estimates.update(
                {f"m={m}": z + p_estimate * m for m, z in zvals.items()}
            )
        span.set(chosen=chosen, estimates=estimates,
                 evaluated=counts["evaluated"], reused=counts["reused"])
    return OStealDecision(
        group_size=chosen,
        active_workers=tree.active_workers(chosen),
        ownership=tree.ownership(chosen),
        estimated_cost=float(solution.objective) + p_estimate * chosen,
        estimated_kernel=float(solution.objective),
        fsteal=solution,
        evaluated_sizes=counts["evaluated"],
        reused_sizes=counts["reused"],
    )
