"""Timing records produced by engine runs.

Every engine (GUM, Gunrock model, Groute model) emits the same record
types so benchmark harnesses can compare them directly:

* :class:`TimeBreakdown` — virtual seconds split into the five buckets
  of the paper's Figure 6 discussion (computation, communication,
  serialization, synchronization, overhead).
* :class:`IterationRecord` — one BSP superstep (or async round):
  per-GPU busy/stall times (the Figure 1 / Figure 8 timelines), the
  iteration's wall time, stealing decisions taken.
* :class:`RunResult` — a completed run: final vertex values, iteration
  records, aggregate breakdown, plus real (host) decision time for
  Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["TimeBreakdown", "IterationRecord", "RunResult"]


@dataclass
class TimeBreakdown:
    """Virtual seconds per cost bucket; additive."""

    compute: float = 0.0
    communication: float = 0.0
    serialization: float = 0.0
    sync: float = 0.0
    overhead: float = 0.0

    @property
    def total(self) -> float:
        """Sum of all buckets."""
        return (
            self.compute
            + self.communication
            + self.serialization
            + self.sync
            + self.overhead
        )

    def add(self, other: "TimeBreakdown") -> None:
        """Accumulate another breakdown into this one, in place."""
        self.compute += other.compute
        self.communication += other.communication
        self.serialization += other.serialization
        self.sync += other.sync
        self.overhead += other.overhead

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (seconds) for reporting."""
        return {
            "compute": self.compute,
            "communication": self.communication,
            "serialization": self.serialization,
            "sync": self.sync,
            "overhead": self.overhead,
            "total": self.total,
        }

    def scaled_ms(self) -> Dict[str, float]:
        """Same as :meth:`as_dict` but in milliseconds."""
        return {
            "compute": self.compute * 1e3,
            "communication": self.communication * 1e3,
            "serialization": self.serialization * 1e3,
            "sync": self.sync * 1e3,
            "overhead": self.overhead * 1e3,
            "total": self.total * 1e3,
        }


@dataclass
class IterationRecord:
    """Timing of one superstep/round.

    ``busy_seconds[j]``/``stall_seconds[j]`` describe worker ``j``; a
    worker excluded by OSteal has zero busy time and zero stall (it is
    out of the communication group, not waiting).
    """

    iteration: int
    frontier_size: int
    frontier_edges: int
    active_workers: List[int]
    busy_seconds: np.ndarray
    stall_seconds: np.ndarray
    wall_seconds: float
    breakdown: TimeBreakdown
    fsteal_applied: bool = False
    osteal_group_size: Optional[int] = None
    stolen_edges: int = 0
    real_decision_seconds: float = 0.0

    @property
    def num_active(self) -> int:
        """Number of workers participating in this iteration."""
        return len(self.active_workers)


@dataclass
class RunResult:
    """Everything a finished engine run reports."""

    engine: str
    algorithm: str
    graph_name: str
    num_gpus: int
    values: np.ndarray
    iterations: List[IterationRecord] = field(default_factory=list)
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    converged: bool = True
    real_decision_seconds: float = 0.0
    #: Scheduler-reported run-level decision statistics (plan-cache
    #: hit counters, warm-start accepts, ...); empty for stateless
    #: policies.
    decision_stats: Dict[str, float] = field(default_factory=dict)
    #: Fault-injection summary (scenario name, fired events, eviction
    #: and retry counters) when a chaos controller drove the run;
    #: ``None`` on healthy runs.
    chaos: Optional[Dict[str, object]] = None
    #: Host seconds the run spent inside observability code (span and
    #: metric emission). Zero with both observers disabled.
    obs_seconds: float = 0.0
    #: Host wall-clock seconds of the whole ``run()`` call — the
    #: denominator of ``obs_overhead_pct``.
    run_wall_seconds: float = 0.0
    #: Execution-backend statistics (worker count, task count,
    #: dispatch/collect host seconds) for parallel backends; ``None``
    #: for the in-process serial backend.
    backend_stats: Optional[Dict[str, object]] = None
    #: The scheduler's per-decision explainability ledger (a
    #: ``repro.obs.ledger.Ledger``) when the policy records one;
    #: ``None`` for stateless baselines or when recording is off.
    ledger: Optional[object] = None

    def obs_overhead_pct(self) -> Optional[float]:
        """Observability overhead as a percentage of run wall time.

        ``None`` when no wall time was recorded (a hand-built result, a
        manifest archived before self-measurement) — those stay diffable.
        """
        if self.run_wall_seconds <= 0.0:
            return None
        return 100.0 * self.obs_seconds / self.run_wall_seconds

    @property
    def total_seconds(self) -> float:
        """End-to-end virtual runtime."""
        return self.breakdown.total

    @property
    def total_ms(self) -> float:
        """End-to-end virtual runtime in milliseconds."""
        return self.breakdown.total * 1e3

    @property
    def num_iterations(self) -> int:
        """Number of supersteps/rounds executed."""
        return len(self.iterations)

    def busy_matrix(self) -> np.ndarray:
        """``(num_iterations, num_gpus)`` per-GPU busy seconds.

        This is the data behind the paper's Figure 1 and Figure 8
        timelines.
        """
        if not self.iterations:
            return np.zeros((0, self.num_gpus))
        return np.stack([rec.busy_seconds for rec in self.iterations])

    def stall_matrix(self) -> np.ndarray:
        """``(num_iterations, num_gpus)`` per-GPU stall seconds."""
        if not self.iterations:
            return np.zeros((0, self.num_gpus))
        return np.stack([rec.stall_seconds for rec in self.iterations])

    def group_size_series(self) -> List[int]:
        """Active-worker count per iteration (Figure 9's switching plot)."""
        return [rec.num_active for rec in self.iterations]

    def stall_fraction(self) -> float:
        """Aggregate fraction of worker-time spent stalled.

        ``sum(stall) / sum(busy + stall)`` over active workers — the
        utilization statistic Exp-3 quotes (72% stall -> 4%).
        """
        busy = 0.0
        stall = 0.0
        for rec in self.iterations:
            active = rec.active_workers
            busy += float(rec.busy_seconds[active].sum())
            stall += float(rec.stall_seconds[active].sum())
        denom = busy + stall
        return stall / denom if denom > 0 else 0.0

    def __repr__(self) -> str:
        return (
            f"RunResult({self.engine}/{self.algorithm} on "
            f"{self.graph_name}, {self.num_gpus} GPUs: "
            f"{self.total_ms:.2f} ms, {self.num_iterations} iters)"
        )
