"""Decision amortization: fingerprinted plan caching for the hot path.

Table IV charges the arbitrator's decision latency into every
superstep, so GUM only wins while deciding stays cheap. Adaptive load
balancers reuse a decision while the distribution holds (Jatala et
al.); this module provides the machinery to do that for FSteal
instances that recur up to a tolerance. Where they recur is a measured
fact, not the long-tail road graphs this was written for: there the
active-worker set is stable but one of the quantized cost coefficients
changes between nearly every pair of consecutive instances, so the
plan cache hits 0 times in ``tail-road``'s 789 lookups and every hit
across the 75-cell matrix is on PageRank, whose instances repeat bit
for bit (numbers and method in docs/performance.md, "Measured
traffic"). The pieces:

* :func:`quantize` — log-bucket a nonnegative vector so that values
  within a relative ``tolerance`` of each other collapse into the same
  bucket (the "quantized fingerprint" of the workload/cost vectors);
* :func:`plan_fingerprint` — the cache key of one FSteal instance:
  quantized workloads, the active-worker set, and quantized cost
  coefficients (``inf`` entries — evicted workers — keep their own
  sentinel, so a shrunk group never matches a wider one);
* :func:`repair_assignment` — rescale a cached assignment to the
  *current* workload vector (tolerance-based reuse is only sound
  because the repaired plan is re-validated exactly);
* :class:`PlanCache` — bounded LRU of repaired-and-validated plans
  with hit/miss/invalidation/eviction counters;
* :class:`LruDict` — the bounded mapping underneath, also used for
  the incremental-OSteal ``z(m)`` memo keyed by fingerprint.

Everything here is *advisory*: a fetched plan has passed
``FStealProblem.validate_assignment`` against the live problem, so a
stale or mis-bucketed entry degrades to a cache miss, never to an
infeasible plan. Disabling the layer (``GumConfig.amortize=False``)
bypasses this module entirely and reproduces pre-amortization virtual
times bit for bit.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.milp import FStealProblem
from repro.errors import SolverError

__all__ = [
    "quantize",
    "plan_fingerprint",
    "repair_assignment",
    "LruDict",
    "PlanCache",
]

#: Bucket sentinels for values a logarithm cannot represent.
_ZERO_BUCKET = -(2**62)
_INF_BUCKET = 2**62


def quantize(values, tolerance: float) -> bytes:
    """Log-bucket a nonnegative vector into a hashable fingerprint.

    Two vectors quantize identically when every entry falls in the
    same multiplicative bucket of width ``1 + tolerance`` (bucket ``k``
    covers roughly ``[(1+tol)^(k-1/2), (1+tol)^(k+1/2))``), so a
    uniform relative drift below ~``tolerance/2`` keeps the
    fingerprint stable. Zeros and ``inf`` (forbidden pairings) get
    their own sentinels — a worker leaving the group always changes
    the fingerprint. ``tolerance <= 0`` degenerates to the exact
    bit pattern (no tolerance-based reuse).

    Besides plan-cache keys, the decision ledger
    (:mod:`repro.obs.ledger`) reuses this fingerprint as each entry's
    quantized feature-vector identity, so "same cached decision"
    and "same ledger fingerprint" mean the same thing.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if tolerance <= 0.0:
        return values.tobytes()
    buckets = np.where(np.isinf(values), _INF_BUCKET, _ZERO_BUCKET)
    finite_pos = (values > 0) & (values < math.inf)
    if finite_pos.any():
        buckets[finite_pos] = np.round(
            np.log(values[finite_pos]) / math.log1p(tolerance)
        )
    return buckets.tobytes()


def plan_fingerprint(
    costs: np.ndarray,
    workloads: np.ndarray,
    tolerance: float,
    active: Optional[Sequence[int]] = None,
) -> Tuple:
    """Cache key of one FSteal instance.

    Covers the per-fragment workload vector, the active-worker set
    (derived from the finite cost columns when not given), and the
    cost coefficients, each quantized with ``tolerance`` — in one pass
    over both vectors, which the key splits again. The matrix shape is
    included so transposed/reshaped instances can never collide.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if active is None:
        active = np.flatnonzero(np.isfinite(costs).any(axis=0)).tolist()
    split = 8 * len(workloads)  # bytes of the workloads' int64 buckets
    both = quantize(np.concatenate(
        (np.asarray(workloads, dtype=np.float64), costs.ravel())
    ), tolerance)
    return (costs.shape, tuple(int(j) for j in active),
            both[:split], both[split:])


def repair_assignment(
    assignment,
    problem: FStealProblem,
) -> Optional[list]:
    """Rescale a previous assignment to the current problem, or ``None``.

    Work parked on now-forbidden workers (evicted by OSteal) is pulled
    back, then every fragment row is rescaled to its current workload
    by largest-remainder apportionment over the allowed workers —
    preserving the old plan's *shape* (the relative split the solver
    chose) while conserving the new ``l_i`` exactly. Returns fresh
    integer rows, or ``None`` when the shapes mismatch or a count is
    negative; callers must still run
    :meth:`FStealProblem.validate_assignment` on the result (the cache
    does) before trusting it.
    """
    n_work = problem.num_workers
    assignment = np.asarray(assignment)
    if assignment.shape != problem.costs.shape or (assignment < 0).any():
        return None
    # work parked on forbidden workers is pulled back
    out = np.where(np.isfinite(problem.costs), assignment, 0).astype(
        np.int64
    ).tolist()
    for kept, row, cols, target in zip(
        out, problem.rows, problem.allowed, problem.loads
    ):
        total = sum(kept)
        if total != target:
            ratio = target / total if total else 0.0
            exact = [x * ratio for x in kept]
            kept[:] = [math.floor(x) for x in exact]
            if not total:
                # the old plan had nothing here: seed the cheapest worker
                kept[min(cols, key=row.__getitem__)] = target
            deficit = target - sum(kept)
            if deficit > 0:
                # largest remainders first, ties to the lower column,
                # forbidden cells last
                ranked = sorted(range(n_work), key=lambda j: (
                    kept[j] - exact[j] if j in cols else 1.0
                ))
                for j in ranked[:deficit]:
                    kept[j] += 1
    return out


class LruDict:
    """Bounded mapping with least-recently-used eviction.

    The storage primitive under :class:`PlanCache` and the OSteal
    ``z(m)`` memo: reads refresh recency, inserts beyond
    ``max_entries`` evict the stalest entry.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise SolverError(
                f"LruDict needs max_entries >= 1, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        """Value for ``key`` (refreshing its recency), else ``default``."""
        if key not in self._entries:
            return default
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key, value) -> None:
        """Insert/overwrite ``key``, evicting the stalest past the cap."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_create(self, key, factory: Callable[[], object]):
        """Like :meth:`get` but inserting ``factory()`` on a miss."""
        value = self.get(key, default=None)
        if value is None:
            value = factory()
            self.put(key, value)
        return value

    def pop(self, key) -> None:
        """Drop ``key`` if present (not counted as an eviction)."""
        self._entries.pop(key, None)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class PlanCache:
    """LRU cache of FSteal assignments keyed by quantized fingerprints.

    ``fetch`` returns a plan only after repairing it to the live
    workload vector and re-validating it against the live problem —
    a failed repair/validation *invalidates* the entry (staleness) and
    reads as a miss, so callers can treat any returned assignment as
    exactly feasible.
    """

    def __init__(
        self, max_entries: int = 64, tolerance: float = 0.05
    ) -> None:
        self.tolerance = float(tolerance)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._entries = LruDict(max_entries)

    def fingerprint(
        self,
        costs: np.ndarray,
        workloads: np.ndarray,
        active: Optional[Sequence[int]] = None,
    ) -> Tuple:
        """Cache key for one problem (see :func:`plan_fingerprint`)."""
        return plan_fingerprint(costs, workloads, self.tolerance, active)

    def fetch(
        self, key: Tuple, problem: FStealProblem
    ) -> Optional[list]:
        """A repaired, validated assignment (integer rows) for ``key``
        — or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        repaired = repair_assignment(entry, problem)
        if repaired is not None:
            try:
                problem.validate_assignment(repaired)
            except SolverError:
                repaired = None
        if repaired is None:
            # stale: tolerance admitted a problem the old plan cannot
            # serve (active set shrank, coefficients moved, ...)
            self._entries.pop(key)
            self.invalidations += 1
            self.misses += 1
            return None
        self.hits += 1
        return repaired

    def store(self, key: Tuple, assignment: np.ndarray) -> None:
        """Remember a solved assignment under ``key``."""
        self._entries.put(
            key, np.asarray(assignment, dtype=np.int64).copy()
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def evictions(self) -> int:
        """Entries dropped by the LRU bound."""
        return self._entries.evictions

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (plain ints, JSON-friendly)."""
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "invalidations": int(self.invalidations),
            "evictions": int(self.evictions),
            "entries": int(len(self)),
        }
