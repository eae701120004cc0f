"""The greedy FSteal solver, checked against a committed record.

``tests/core/greedy_golden.txt`` was generated at the commit before
:class:`~repro.core.milp.GreedySolver` moved its seeding, refinement
and objective comparisons from NumPy arrays onto Python lists. It
holds one line per solved problem: a label, the sha256 of the returned
assignment's int64 bytes, ``repr`` of the objective and
``warm_started``. The problems are

- seeded 4x4, 8x8 and 64x8 instances with forbidden (``inf``) cells,
  a forbidden column (an evicted worker) on every fourth seed,
  zero-workload rows, and quantized costs on every third seed so that
  moves tie; each is solved cold and with four warm starts: a random
  valid one, the plan for the same problem with costs nudged by up to
  3 % (what the arbitrator carries from one superstep to the next), one
  of a stale shape and one that puts load on a forbidden worker;
- every problem a TX/bfs@4 GUM run hands its solver, with the warm
  start the arbitrator passed.

Every field is computed from the inputs alone, so the record is the
same on every host. An intended change to the solver regenerates it::

    PYTHONPATH=src python tests/core/test_greedy_golden.py > tests/core/greedy_golden.txt
"""

import hashlib
import pathlib
import sys

import numpy as np

from repro.core.milp import FStealProblem, GreedySolver

RECORD = pathlib.Path(__file__).with_name("greedy_golden.txt")

SHAPES = ((4, 4), (8, 8), (64, 8))
SEEDS = range(12)


def random_problem(rows: int, cols: int, seed: int):
    """One seeded instance and its warm starts."""
    rng = np.random.default_rng([rows, cols, seed])
    costs = rng.uniform(0.5e-9, 4e-9, size=(rows, cols))
    if seed % 3 == 0:
        costs = np.round(costs * 4e9) / 4e9
    costs[rng.random((rows, cols)) < 0.15] = np.inf
    if seed % 4 == 1:
        costs[:, rng.integers(cols)] = np.inf
    for i in np.flatnonzero(~np.isfinite(costs).any(axis=1)):
        costs[i, rng.integers(cols)] = rng.uniform(0.5e-9, 4e-9)
    workloads = rng.integers(0, 5000, size=rows)
    workloads[rng.random(rows) < 0.25] = 0
    if seed == 5:
        workloads[rng.integers(rows)] = 100_000
    if seed == 7:
        workloads[:] = 0
    finite = np.isfinite(costs)
    valid = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        allowed = np.flatnonzero(finite[i])
        valid[i, allowed] = rng.multinomial(
            workloads[i], np.full(allowed.size, 1.0 / allowed.size)
        )
    forbidden = valid.copy()
    movable = np.flatnonzero((workloads > 0) & ~finite.all(axis=1))
    if movable.size:
        i = int(movable[0])
        forbidden[i, np.flatnonzero(valid[i])[0]] -= 1
        forbidden[i, np.flatnonzero(~finite[i])[0]] += 1
    nudged = costs * rng.uniform(0.97, 1.03, size=(rows, cols))
    warm_starts = {
        "cold": None,
        "valid": valid,
        "nudged": GreedySolver().solve(
            FStealProblem(nudged, workloads)
        ).assignment,
        "stale": valid[:, :-1],
        "forbidden": forbidden,
    }
    return FStealProblem(costs, workloads), warm_starts


class _Recording:
    """A greedy solver that keeps every solution it returns."""

    name = "greedy"

    def __init__(self) -> None:
        self._inner = GreedySolver()
        self.solutions = []

    def solve(self, problem, warm_start=None):
        solution = self._inner.solve(problem, warm_start=warm_start)
        self.solutions.append(solution)
        return solution


def _line(label: str, solution) -> str:
    digest = hashlib.sha256(
        np.ascontiguousarray(solution.assignment, dtype=np.int64).tobytes()
    ).hexdigest()
    return (f"{label} {digest} {solution.objective!r} "
            f"{solution.warm_started}")


def lines():
    """The record's lines, from the current solver."""
    import repro
    from repro.core.arbitrator import GumConfig
    from repro.graph import datasets

    solver = GreedySolver()
    for rows, cols in SHAPES:
        for seed in SEEDS:
            problem, warm_starts = random_problem(rows, cols, seed)
            for kind, warm in warm_starts.items():
                yield _line(f"{rows}x{cols}/{seed}/{kind}",
                            solver.solve(problem, warm_start=warm))
    recording = _Recording()
    repro.run(datasets.load("TX"), "bfs", num_gpus=4,
              gum_config=GumConfig(solver=recording))
    for k, solution in enumerate(recording.solutions):
        yield _line(f"TX@4-bfs/{k}", solution)


def test_solutions_match_the_committed_record():
    record = RECORD.read_text().splitlines()
    assert len(record) == len(SHAPES) * len(SEEDS) * 5 + 10
    assert list(lines()) == record


if __name__ == "__main__":
    sys.stdout.write("".join(f"{line}\n" for line in lines()))
