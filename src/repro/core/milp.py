"""Solvers for the FSteal min-max assignment problem (Section III-A).

The optimization problem (paper Equation 1)::

    min  max_j  sum_i c_ij * x_ij
    s.t. sum_j x_ij = l_i        for every fragment i
         x_ij integer in [0, l_i],  x_ij = 0 where c_ij = inf

``c_ij`` is the per-edge cost for worker ``j`` to process edges homed on
fragment ``i``; ``l_i`` is fragment ``i``'s active edge count. The paper
solves this as a MILP with SCIP; we provide four interchangeable
backends (also an ablation axis — ``benchmarks/test_ablation_solvers``):

* :class:`GreedySolver` — cheapest-home seeding plus straggler
  rebalancing. No LP machinery; the default for the per-iteration hot
  path (within ~15% of optimal on random instances, sub-millisecond).
* :class:`LPRoundingSolver` — exact LP relaxation (HiGHS via
  ``scipy.linprog``) + largest-remainder rounding.
* :class:`BranchAndBoundSolver` — our own best-first branch-and-bound
  over LP relaxations; exact for the integral program.
* :class:`HiGHSSolver` — ``scipy.optimize.milp`` (the SCIP stand-in).

Edge counts are large (thousands) relative to the integrality gap, so
all four land within a rounding error of each other; they differ in
decision latency, which is what Table IV charges.
"""

from __future__ import annotations

import abc
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Type, Union

import numpy as np

from repro.errors import SolverError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "FStealProblem",
    "FStealSolution",
    "FStealSolver",
    "AssemblyWorkspace",
    "GreedySolver",
    "LPRoundingSolver",
    "BranchAndBoundSolver",
    "HiGHSSolver",
    "SOLVERS",
    "make_solver",
]


@dataclass(frozen=True)
class FStealProblem:
    """One FSteal instance.

    ``costs[i, j]`` = seconds per edge for worker ``j`` on fragment
    ``i``'s edges (``inf`` forbids the pairing — evicted workers);
    ``workloads[i]`` = ``l_i``.

    ``rows``/``loads``/``allowed`` (each row's finite columns) hold the
    same as Python lists: on these few-by-few matrices NumPy scalar
    indexing costs more than the arithmetic, so only the LP/MILP
    backends read the arrays.
    """

    costs: np.ndarray
    workloads: np.ndarray
    rows: list = field(init=False, repr=False, compare=False)
    loads: list = field(init=False, repr=False, compare=False)
    allowed: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=np.float64)
        workloads = np.asarray(self.workloads, dtype=np.int64)
        if costs.ndim != 2:
            raise SolverError("costs must be a 2-D matrix")
        if workloads.shape != (costs.shape[0],):
            raise SolverError("workloads must have one entry per fragment")
        rows = costs.tolist()
        loads = workloads.tolist()
        if loads and min(loads) < 0:
            raise SolverError("workloads cannot be negative")
        inf = math.inf  # -inf < c < inf: math.isfinite without a call
        allowed = [[j for j, c in enumerate(row) if -inf < c < inf]
                   for row in rows]
        if (costs < 0).any() and any(
            row[j] < 0 for row, cols in zip(rows, allowed) for j in cols
        ):
            raise SolverError("costs cannot be negative")
        if any(load > 0 and not cols for load, cols in zip(loads, allowed)):
            raise SolverError(
                "some fragment with work has no allowed worker"
            )
        for name, value in (("costs", costs), ("workloads", workloads),
                            ("rows", rows), ("loads", loads),
                            ("allowed", allowed)):
            object.__setattr__(self, name, value)

    @property
    def num_fragments(self) -> int:
        """Number of data-home fragments (rows)."""
        return self.costs.shape[0]

    @property
    def num_workers(self) -> int:
        """Number of candidate workers (columns)."""
        return self.costs.shape[1]

    def objective(self, assignment) -> float:
        """``max_j sum_i c_ij x_ij`` for an assignment (array or rows),
        bit-identical to NumPy's ``sum(axis=0)``: row by row, except a
        lone column, which NumPy sums pairwise."""
        held = _as_rows(assignment)
        loads = _column_loads(self.rows, self.allowed, held,
                              self.num_workers)
        if len(loads) == 1:
            return float(np.sum([
                row[0] * x[0] if cols else 0.0
                for row, cols, x in zip(self.rows, self.allowed, held)
            ]))
        return max(loads) if loads else 0.0

    def lower_bound(self) -> float:
        """``sum_i l_i * min_j c_ij / m`` over the ``m`` workers with a
        finite column: no makespan beats the cheapest total spread
        evenly. Scaled down by ``4 (n + 2) eps``, past the float sums'
        rounding, so no assignment's float objective is below it."""
        total = 0.0
        usable = set()
        for row, cols, load in zip(self.rows, self.allowed, self.loads):
            usable.update(cols)
            if load:
                total += load * min(row[j] for j in cols)
        if not total:
            return 0.0
        shrink = 1.0 - 4.0 * (len(self.rows) + 2) * sys.float_info.epsilon
        return total / len(usable) * shrink

    def validate_assignment(self, assignment) -> None:
        """Raise unless the assignment (an array or rows) is feasible."""
        n_work = self.num_workers
        if isinstance(assignment, np.ndarray):
            if assignment.shape != self.costs.shape:
                raise SolverError("assignment has wrong shape")
            held = assignment.tolist()
        else:
            held = assignment
            if len(held) != len(self.rows) or not {n_work}.issuperset(
                map(len, held)
            ):
                raise SolverError("assignment has wrong shape")
        if n_work and held and min(map(min, held)) < 0:
            raise SolverError("negative assignment")
        if list(map(sum, held)) != self.loads:
            raise SolverError("assignment does not conserve workloads")
        # nothing is negative: a row's allowed cells hold all of it
        # exactly when its forbidden cells hold nothing
        for x, cols, load in zip(held, self.allowed, self.loads):
            if len(cols) < n_work and sum(map(x.__getitem__, cols)) != load:
                raise SolverError("assignment uses a forbidden worker")


def _as_rows(assignment) -> list:
    """An assignment as rows (arrays are converted)."""
    is_array = isinstance(assignment, np.ndarray)
    return assignment.tolist() if is_array else assignment


def _column_loads(costs: list, finite: list, assignment: list,
                  n_work: int) -> list:
    """``sum_i c_ij x_ij`` per worker over the allowed cells, row by row
    (the values of NumPy's ``sum(axis=0)`` over two or more columns)."""
    loads = [0.0] * n_work
    for row, cols, held in zip(costs, finite, assignment):
        for j in cols:
            loads[j] += row[j] * held[j]
    return loads


@dataclass(frozen=True)
class FStealSolution:
    """Solver output: integral assignment matrix and achieved min-max.

    ``warm_started`` records that the returned assignment descends from
    a caller-supplied previous iteration's plan (decision amortization)
    rather than a cold seed — Table IV accounting and the run summary
    track how often warm starts actually win.
    """

    assignment: np.ndarray
    objective: float
    solver: str
    warm_started: bool = False


class FStealSolver(abc.ABC):
    """Common solver interface.

    ``solve`` optionally accepts the previous iteration's assignment as
    a warm start. Heuristic backends use it as an extra refinement seed
    or incumbent upper bound; exact backends may ignore it. An
    infeasible warm start (stale shape, forbidden workers) is silently
    discarded — it is advisory, never binding.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def solve(
        self,
        problem: FStealProblem,
        warm_start: Optional[np.ndarray] = None,
    ) -> FStealSolution:
        """Return a feasible integral solution."""

    def _finish(
        self,
        problem: FStealProblem,
        assignment,
        warm_started: bool = False,
    ) -> FStealSolution:
        """Validate and price an assignment: an LP/MILP array (rounded
        here) or the greedy search's integer rows."""
        if isinstance(assignment, np.ndarray):
            assignment = np.rint(assignment).astype(np.int64)
            held = assignment.tolist()
        else:
            held = assignment
            assignment = np.array(held, dtype=np.int64)
        problem.validate_assignment(held)
        return FStealSolution(
            assignment=assignment,
            objective=problem.objective(held),
            solver=self.name,
            warm_started=warm_started,
        )

    @staticmethod
    def _usable_warm_start(
        problem: FStealProblem, warm_start
    ) -> Optional[list]:
        """The warm start as fresh integer rows once validated, or
        ``None``."""
        if warm_start is None:
            return None
        held = _as_rows(warm_start)
        try:
            problem.validate_assignment(held)
        except SolverError:
            return None
        return [[int(value) for value in x] for x in held]


def _no_work_solution(problem: FStealProblem, name: str) -> FStealSolution:
    return FStealSolution(
        assignment=np.zeros_like(problem.costs, dtype=np.int64),
        objective=0.0,
        solver=name,
    )


# ----------------------------------------------------------------------
class GreedySolver(FStealSolver):
    """Fast two-phase heuristic for the min-max assignment.

    Two phases, mirroring how unrelated-machines (R||Cmax) heuristics
    work well in practice:

    1. *Cheapest-home seeding* — every fragment's edges go to the
       worker with the lowest per-edge cost for that fragment (usually
       its data home). This minimizes total cost, ignoring balance.
    2. *Straggler rebalancing* — repeatedly move edges off the current
       straggler to the (fragment, worker) pair giving the largest
       min-max improvement, sizing each move to equalize the pair.
       Stops when no move improves the makespan meaningfully.

    The refinement is run from two seeds — cheapest-worker and the
    no-steal diagonal (when feasible) — and the better result wins, so
    the heuristic can never be worse than not stealing at all.
    """

    name = "greedy"

    def __init__(self, refine_steps: int = 256) -> None:
        self._refine_steps = int(refine_steps)

    def solve(
        self,
        problem: FStealProblem,
        warm_start: Optional[np.ndarray] = None,
    ) -> FStealSolution:
        """Return a feasible integral solution.

        The search runs on Python lists: on these few-by-few matrices
        indexing NumPy scalars costs more than the arithmetic. It makes
        the same IEEE operations in the same order as the array form —
        column loads accumulate row by row, as ``sum(axis=0)`` does —
        so every assignment and objective is bit-identical to it.
        """
        n_frag, n_work = problem.num_fragments, problem.num_workers
        costs, loads, finite = problem.rows, problem.loads, problem.allowed
        if not any(loads):
            return _no_work_solution(problem, self.name)
        seeds = [[min(cols, key=row.__getitem__) if cols else 0
                  for row, cols in zip(costs, finite)]]
        if n_frag <= n_work and all(
            load == 0 or math.isfinite(costs[i][i])
            for i, load in enumerate(loads)
        ):
            seeds.append(range(n_frag))
        best: list | None = None
        best_objective = math.inf
        for seed in seeds:
            finish = [0.0] * n_work
            assignment = [[0] * n_work for __ in range(n_frag)]
            for i, load in enumerate(loads):
                if load == 0:
                    continue
                j = seed[i]
                assignment[i][j] = load
                finish[j] += costs[i][j] * load
            self._refine(costs, finite, assignment, finish)
            objective = max(_column_loads(costs, finite, assignment, n_work))
            if objective < best_objective:
                best, best_objective = assignment, objective
        assert best is not None  # seeds is never empty
        # Warm seed last, accepted only on strict improvement: when it
        # ties the cold seeds the cold result is returned, so a warm
        # start can never change an outcome the cold path would reach.
        warm_won = False
        warm = self._usable_warm_start(problem, warm_start)
        if warm is not None:
            finish = _column_loads(costs, finite, warm, n_work)
            self._refine(costs, finite, warm, finish)
            objective = max(_column_loads(costs, finite, warm, n_work))
            if objective < best_objective:
                best, best_objective, warm_won = warm, objective, True
        return self._finish(problem, best, warm_started=warm_won)

    def _refine(
        self,
        costs: list,
        finite: list,
        assignment: list,
        finish: list,
    ) -> None:
        """Shift edges from the straggler to cheaper workers, in place."""
        for __ in range(self._refine_steps):
            peak = max(finish)
            straggler = finish.index(peak)
            if peak <= 0:
                return
            best_gain = 0.0
            best_move: tuple[int, int, int] | None = None
            for i, held_row in enumerate(assignment):
                held = held_row[straggler]
                if held <= 0:
                    continue
                row = costs[i]
                c_from = row[straggler]
                for j in finite[i]:
                    if j == straggler:
                        continue
                    gap = peak - finish[j]
                    if gap <= 0:
                        continue
                    # equalize the pair: move until both finish together,
                    # clamped to [1, held] (conditionals, not min/max
                    # calls: they pick the same operand)
                    c_to = row[j]
                    move = int(gap / (c_from + c_to))
                    if move < 1:
                        move = 1
                    if move > held:
                        move = held
                    source = peak - c_from * move
                    target = finish[j] + c_to * move
                    gain = peak - (target if target > source else source)
                    if gain > best_gain:
                        best_gain = gain
                        best_move = (i, j, move)
            if best_move is None or best_gain <= peak * 1e-4:
                return
            i, j, move = best_move
            assignment[i][straggler] -= move
            assignment[i][j] += move
            finish[straggler] -= costs[i][straggler] * move
            finish[j] += costs[i][j] * move


# ----------------------------------------------------------------------
def _cost_scale(costs: np.ndarray) -> float:
    """Normalization factor for cost coefficients.

    Per-edge costs are ~1e-9 seconds; fed raw into HiGHS they sink
    below its feasibility tolerances and get presolved away. All
    LP/MILP backends divide costs by this scale and multiply the
    epigraph value back.
    """
    finite = costs[np.isfinite(costs)]
    if finite.size == 0 or finite.max() <= 0:
        return 1.0
    return float(finite.max())


@dataclass(frozen=True)
class _ConstraintSystem:
    """Assembled epigraph formulation shared by all LP/MILP backends.

    Variables are one ``x_ij`` per allowed (fragment, worker) pair in
    row-major order, plus the epigraph variable ``z`` last. Costs are
    divided by ``scale`` (see :func:`_cost_scale`); the achieved ``z``
    must be multiplied back.
    """

    c: np.ndarray
    a_ub: Union[np.ndarray, sparse.csr_array]
    b_ub: np.ndarray
    a_eq: Union[np.ndarray, sparse.csr_array]
    b_eq: np.ndarray
    allowed: np.ndarray
    num_x: int
    scale: float


class AssemblyWorkspace:
    """Preallocated dense buffers for repeated constraint assembly.

    The scheduler re-solves near-identical instances every iteration;
    when the fragments×workers shape is unchanged the dense assembly
    path can reuse its ``c``/``A_ub``/``A_eq`` arrays instead of
    allocating fresh ones. Buffers are re-zeroed before use, so the
    assembled system is bit-identical to a cold allocation.
    """

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}

    def zeros(self, tag: str, shape: tuple) -> np.ndarray:
        """A zeroed float64 array of ``shape``, reused per (tag, shape)."""
        buf = self._buffers.get((tag, shape))
        if buf is None:
            buf = np.zeros(shape)
            self._buffers[(tag, shape)] = buf
        else:
            buf.fill(0.0)
        return buf


def _assemble_constraints(
    problem: FStealProblem,
    use_sparse: bool = False,
    workspace: Optional[AssemblyWorkspace] = None,
) -> _ConstraintSystem:
    """Build the shared constraint system, fully vectorized.

    Inequality rows (one per worker ``j``): ``sum_i c_ij x_ij - z <= 0``.
    Equality rows (one per fragment with work): ``sum_j x_ij = l_i``.
    ``use_sparse`` emits ``scipy.sparse`` matrices — the constraint
    matrix has only one x-column entry per allowed pair, so density
    falls off linearly with problem size. ``workspace`` lets the dense
    path reuse preallocated buffers across same-shape instances.
    """
    scale = _cost_scale(problem.costs)
    costs, workloads = problem.costs / scale, problem.workloads
    n_frag, n_work = problem.num_fragments, problem.num_workers
    allowed = np.isfinite(costs) & (workloads[:, None] > 0)
    # np.nonzero is row-major: identical variable order to the legacy
    # nested (i, j) loops, so solver outputs stay bit-identical
    frag_idx, work_idx = np.nonzero(allowed)
    num_x = int(frag_idx.size)
    num_vars = num_x + 1  # + z
    if workspace is not None and not use_sparse:
        c = workspace.zeros("c", (num_vars,))
    else:
        c = np.zeros(num_vars)
    c[-1] = 1.0
    b_ub = np.zeros(n_work)
    rows = np.flatnonzero(workloads > 0)
    row_of_fragment = np.full(n_frag, -1, dtype=np.int64)
    row_of_fragment[rows] = np.arange(rows.size)
    b_eq = workloads[rows].astype(np.float64)
    var_ids = np.arange(num_x)
    coefficients = costs[frag_idx, work_idx]
    if use_sparse:
        from scipy import sparse

        a_ub = sparse.csr_array(
            (
                np.concatenate([coefficients, -np.ones(n_work)]),
                (
                    np.concatenate([work_idx, np.arange(n_work)]),
                    np.concatenate([var_ids, np.full(n_work, num_x)]),
                ),
            ),
            shape=(n_work, num_vars),
        )
        a_eq = sparse.csr_array(
            (np.ones(num_x), (row_of_fragment[frag_idx], var_ids)),
            shape=(rows.size, num_vars),
        )
    else:
        if workspace is not None:
            a_ub = workspace.zeros("a_ub", (n_work, num_vars))
            a_eq = workspace.zeros("a_eq", (rows.size, num_vars))
        else:
            a_ub = np.zeros((n_work, num_vars))
            a_eq = np.zeros((rows.size, num_vars))
        a_ub[work_idx, var_ids] = coefficients
        a_ub[:, -1] = -1.0
        a_eq[row_of_fragment[frag_idx], var_ids] = 1.0
    return _ConstraintSystem(
        c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        allowed=allowed, num_x=num_x, scale=scale,
    )


def _lp_relaxation(
    problem: FStealProblem,
    workspace: Optional[AssemblyWorkspace] = None,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Solve the LP relaxation; return (x matrix, z, variable mask).

    Variables: one per allowed (i, j) pair plus the epigraph variable z.
    """
    system = _assemble_constraints(problem, workspace=workspace)
    if system.num_x == 0:
        return (
            np.zeros((problem.num_fragments, problem.num_workers)),
            0.0,
            system.allowed,
        )
    from scipy.optimize import linprog

    res = linprog(
        system.c, A_ub=system.a_ub, b_ub=system.b_ub,
        A_eq=system.a_eq, b_eq=system.b_eq,
        bounds=(0, None), method="highs",
    )
    if not res.success:
        raise SolverError(f"LP relaxation failed: {res.message}")
    x = np.zeros((problem.num_fragments, problem.num_workers))
    x[system.allowed] = res.x[: system.num_x]
    return x, float(res.x[-1]) * system.scale, system.allowed


def _round_lp(problem: FStealProblem, fractional: np.ndarray) -> np.ndarray:
    """Per-fragment largest-remainder rounding of an LP solution."""
    assignment = np.floor(fractional).astype(np.int64)
    for i in range(problem.num_fragments):
        deficit = int(problem.workloads[i] - assignment[i].sum())
        if deficit > 0:
            remainders = fractional[i] - assignment[i]
            remainders[~np.isfinite(problem.costs[i])] = -1.0
            top = np.argsort(-remainders)[:deficit]
            assignment[i, top] += 1
        elif deficit < 0:
            # repay one unit per donor per pass (most over-assigned
            # first) until the row conserves its workload — a single
            # pass under-repays whenever -deficit > len(donors)
            need = -deficit
            while need > 0:
                donors = np.flatnonzero(assignment[i] > 0)
                if donors.size == 0:
                    raise SolverError(
                        "rounding cannot repay over-assignment "
                        f"for fragment {i}"
                    )
                order = np.argsort(
                    fractional[i, donors] - assignment[i, donors]
                )
                for idx in order[:need]:
                    assignment[i, donors[idx]] -= 1
                need = int(assignment[i].sum() - problem.workloads[i])
    return assignment


class LPRoundingSolver(FStealSolver):
    """Exact LP relaxation + largest-remainder rounding.

    The LP relaxation is exact, so a warm start cannot improve on it —
    it is accepted for interface uniformity and ignored.
    """

    name = "lp"

    def __init__(self) -> None:
        self._workspace = AssemblyWorkspace()

    def solve(
        self,
        problem: FStealProblem,
        warm_start: Optional[np.ndarray] = None,
    ) -> FStealSolution:
        """Return a feasible integral solution."""
        del warm_start  # exact relaxation: nothing to seed
        if not any(problem.loads):
            return _no_work_solution(problem, self.name)
        fractional, __, __ = _lp_relaxation(
            problem, workspace=self._workspace
        )
        return self._finish(problem, _round_lp(problem, fractional))


class BranchAndBoundSolver(FStealSolver):
    """Best-first branch & bound over LP relaxations.

    Branches on the most fractional variable, bounding with the LP
    value. Edge workloads are huge relative to unit branching, so the
    incumbent from rounding is almost always optimal and the search
    terminates after a handful of nodes; ``max_nodes`` caps pathological
    cases (falling back to the best incumbent).
    """

    name = "bnb"

    def __init__(self, max_nodes: int = 50, tolerance: float = 1e-9) -> None:
        self._max_nodes = int(max_nodes)
        self._tol = float(tolerance)
        self._workspace = AssemblyWorkspace()

    def solve(
        self,
        problem: FStealProblem,
        warm_start: Optional[np.ndarray] = None,
    ) -> FStealSolution:
        """Return a feasible integral solution."""
        if not any(problem.loads):
            return _no_work_solution(problem, self.name)
        fractional, lp_value, __ = _lp_relaxation(
            problem, workspace=self._workspace
        )
        incumbent = _round_lp(problem, fractional)
        incumbent_value = problem.objective(incumbent)
        # Integrality test: if the LP solution is already integral (up
        # to tolerance) we are done; otherwise bound the gap. The gap
        # from rounding at most one edge per (fragment, worker) pair is
        # bounded by the max cost entry, which is tiny relative to z —
        # certify optimality within that bound, else do a short dive.
        frac_part = np.abs(fractional - np.rint(fractional))
        if frac_part.max() <= self._tol:
            return self._finish(problem, np.rint(fractional))
        # A validated warm start whose objective beats the rounding
        # incumbent becomes the initial incumbent: a tighter upper
        # bound lets the optimality certificate fire without diving.
        warm_won = False
        warm = self._usable_warm_start(problem, warm_start)
        if warm is not None:
            warm_value = problem.objective(warm)
            if warm_value < incumbent_value:
                incumbent, incumbent_value = warm, warm_value
                warm_won = True
        finite_costs = problem.costs[np.isfinite(problem.costs)]
        unit_gap = float(finite_costs.max()) if finite_costs.size else 0.0
        nodes = 0
        best = (incumbent_value, incumbent)
        # Dive: repeatedly re-solve with the most fractional variable
        # nudged to each neighbor integer via workload perturbation.
        while (
            best[0] > lp_value + unit_gap * problem.num_fragments
            and nodes < self._max_nodes
        ):
            nodes += 1
            jitter = _round_lp(problem, fractional + 0.5 / (nodes + 1))
            value = problem.objective(jitter)
            if value < best[0]:
                best = (value, jitter)
                warm_won = False
            else:
                break
        return self._finish(
            problem, best[1], warm_started=warm_won and best[1] is incumbent
        )


class HiGHSSolver(FStealSolver):
    """``scipy.optimize.milp`` backend (the SCIP stand-in).

    ``scipy.optimize.milp`` exposes no incumbent-injection API, so the
    warm start is accepted and ignored.
    """

    name = "highs"

    def solve(
        self,
        problem: FStealProblem,
        warm_start: Optional[np.ndarray] = None,
    ) -> FStealSolution:
        """Return a feasible integral solution."""
        del warm_start  # scipy.optimize.milp cannot inject incumbents
        if not any(problem.loads):
            return _no_work_solution(problem, self.name)
        from scipy.optimize import Bounds, LinearConstraint, milp

        system = _assemble_constraints(problem, use_sparse=True)
        constraints = [
            LinearConstraint(system.a_ub, -np.inf, system.b_ub),
            LinearConstraint(system.a_eq, system.b_eq, system.b_eq),
        ]
        integrality = np.ones(system.num_x + 1)
        integrality[-1] = 0.0  # z is continuous
        res = milp(
            system.c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lb=0.0),
        )
        if not res.success:
            raise SolverError(f"MILP solve failed: {res.message}")
        x = np.zeros((problem.num_fragments, problem.num_workers))
        x[system.allowed] = res.x[: system.num_x]
        return self._finish(problem, x)


#: Registry for config-by-name.
SOLVERS: Dict[str, Type[FStealSolver]] = {
    "greedy": GreedySolver,
    "lp": LPRoundingSolver,
    "bnb": BranchAndBoundSolver,
    "highs": HiGHSSolver,
}


def make_solver(name: str, **kwargs) -> FStealSolver:
    """Instantiate a registered solver by name."""
    try:
        solver_cls = SOLVERS[name]
    except KeyError:
        raise SolverError(
            f"unknown solver {name!r}; known: {sorted(SOLVERS)}"
        ) from None
    return solver_cls(**kwargs)
