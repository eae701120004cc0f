"""Trace analytics: critical path and attribution.

The paper's whole argument is an *attribution* argument — which GPU
straggles each superstep (Figures 1/8), how much the coordinator's
FSteal/OSteal decisions cost (Table IV), where the Figure 6 buckets
go. This module answers those questions offline, from a finished
:class:`~repro.runtime.metrics.RunResult` or an archived trace, in the
style of dPRO-like trace replayers for training stacks. Each superstep
is a BSP step: per-GPU ``busy`` spans fan into a barrier, followed by
a coordinator tail (message transfer, serialization, sync, and
decision overhead) that gates the next superstep.

:func:`analyze` computes the virtual-time **critical path** — each
superstep's straggler plus its coordinator tail, summed — and
attributes end-to-end time per iteration to
``{compute, communication, stall, coordinator}`` buckets that sum to
``result.total_ms`` exactly, naming the **straggler GPU** of every
superstep.

It accepts a ``RunResult``, a ``(header, records)`` pair from
:func:`repro.runtime.trace.load_trace`, or a bare list of iteration
records, so archived runs in the registry analyze identically to live
ones. Durations are milliseconds throughout, matching ``total_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.runtime.metrics import RunResult
from repro.runtime.trace import trace_records

__all__ = [
    "IterationCost",
    "CriticalPathReport",
    "iteration_costs",
    "analyze",
    "format_report",
]

#: Aggregate attribution bucket names, in reporting order.
ATTRIBUTION_BUCKETS = ("compute", "communication", "stall", "coordinator")

AnalysisSource = Union[
    RunResult,
    Tuple[Dict, List[Dict]],
    Sequence[Dict],
    Tuple[Dict, List["IterationCost"]],
]


# ----------------------------------------------------------------------
# Input normalization
# ----------------------------------------------------------------------
def _normalize(source: AnalysisSource) -> Tuple[Dict, List[Dict]]:
    """``(header, iteration_records)`` from any accepted source."""
    if isinstance(source, RunResult):
        header = {
            "engine": source.engine,
            "algorithm": source.algorithm,
            "graph": source.graph_name,
            "num_gpus": source.num_gpus,
            "total_ms": source.total_ms,
        }
        return header, trace_records(source)
    if isinstance(source, tuple) and len(source) == 2:
        header, records = source
        return dict(header), list(records)
    if isinstance(source, Sequence):
        return {}, list(source)
    raise TraceFormatError(
        f"cannot analyze {type(source).__name__}: expected a RunResult, "
        "a (header, records) pair from load_trace, or a record list"
    )


# ----------------------------------------------------------------------
# Per-iteration costs
# ----------------------------------------------------------------------
@dataclass
class IterationCost:
    """Everything the analysis derives from one superstep record.

    ``attribution_ms`` splits the superstep's wall time into the four
    buckets of :data:`ATTRIBUTION_BUCKETS`; the split is exact — the
    buckets sum to ``wall_ms`` by construction:

    * ``compute`` — mean per-edge compute across the active group,
    * ``communication`` — remote edge access, steal migration, and the
      post-barrier message transfer,
    * ``stall`` — load-imbalance wait (critical-path busy minus the
      group's mean busy), the quantity FSteal exists to shrink,
    * ``coordinator`` — serialization, barrier sync, and the decision
      overhead the arbitrator charges every superstep (Table IV).
    """

    iteration: int
    wall_ms: float
    active: List[int]
    busy_ms: np.ndarray
    stall_ms: np.ndarray
    critical_ms: float
    straggler: Optional[int]
    mean_busy_ms: float
    attribution_ms: Dict[str, float]
    fsteal: bool = False
    stolen_edges: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view."""
        return {
            "iteration": self.iteration,
            "wall_ms": float(self.wall_ms),
            "straggler": self.straggler,
            "critical_ms": float(self.critical_ms),
            "mean_busy_ms": float(self.mean_busy_ms),
            "attribution_ms": {
                key: float(value)
                for key, value in self.attribution_ms.items()
            },
            "fsteal": bool(self.fsteal),
            "stolen_edges": int(self.stolen_edges),
        }


def _iteration_cost(record: Dict, position: int) -> IterationCost:
    """Parse one trace record — the only reader of its raw keys."""
    iteration = int(record.get("iteration", position))
    busy = np.asarray(record["busy_ms"], dtype=float)
    stall = np.asarray(record.get("stall_ms", np.zeros_like(busy)),
                       dtype=float)
    if stall.shape != busy.shape:
        raise TraceFormatError(
            f"iteration record {iteration}: busy_ms has "
            f"{busy.size} workers but stall_ms has {stall.size}"
        )
    wall = float(record["wall_ms"])
    active = [int(a) for a in record.get("active_workers",
                                         range(busy.size))]
    if any(not 0 <= a < busy.size for a in active):
        raise TraceFormatError(
            f"iteration record {iteration}: active worker out of "
            f"range for {busy.size} GPUs: {active}"
        )
    if active:
        active_arr = np.asarray(active, dtype=np.int64)
        critical = float(busy[active_arr].max())
        straggler = int(active_arr[int(np.argmax(busy[active_arr]))])
        mean_busy = float(busy[active_arr].mean())
    else:
        critical, straggler, mean_busy = 0.0, None, 0.0

    breakdown = dict(record.get("breakdown_ms") or {})
    if breakdown:
        compute = float(breakdown.get("compute", 0.0))
        communication = float(breakdown.get("communication", 0.0))
        coordinator = (
            float(breakdown.get("serialization", 0.0))
            + float(breakdown.get("sync", 0.0))
            + float(breakdown.get("overhead", 0.0))
        )
        # The engine folds barrier wait into its communication bucket
        # (mean stall + remote access + transfer). Pull the wait back
        # out via the busy spans: stall = critical - mean busy. Clamped
        # so the four buckets always sum to the wall time exactly.
        stall_attr = min(max(critical - mean_busy, 0.0), communication)
        attribution = {
            "compute": compute,
            "communication": communication - stall_attr,
            "stall": stall_attr,
            "coordinator": coordinator,
        }
    else:
        # foreign trace without a bucket breakdown: coarse split into
        # on-critical-path busy and everything after the barrier
        attribution = {
            "compute": critical,
            "communication": 0.0,
            "stall": 0.0,
            "coordinator": wall - critical,
        }
    return IterationCost(
        iteration=iteration,
        wall_ms=wall,
        active=active,
        busy_ms=busy,
        stall_ms=stall,
        critical_ms=critical,
        straggler=straggler,
        mean_busy_ms=mean_busy,
        attribution_ms=attribution,
        fsteal=bool(record.get("fsteal", False)),
        stolen_edges=int(record.get("stolen_edges", 0) or 0),
    )


def iteration_costs(
    source: AnalysisSource,
) -> Tuple[Dict, List[IterationCost]]:
    """``(header, per-superstep costs)`` — the one trace-record parser.

    The result is itself an accepted source (parsed costs pass through
    untouched), so a command parses its trace once and hands the pair
    to :func:`analyze` and :func:`repro.replay.replay_run` alike. Anything malformed in a record is a :class:`TraceFormatError`.
    """
    header, records = _normalize(source)
    costs = []
    for position, record in enumerate(records):
        try:
            costs.append(
                record if isinstance(record, IterationCost)
                else _iteration_cost(record, position)
            )
        except TraceFormatError:
            raise
        except KeyError as exc:
            raise TraceFormatError(
                f"iteration record {position} is missing {exc}; "
                "not a repro trace?"
            ) from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"iteration record {position}: malformed value ({exc})"
            ) from None
    return header, costs


# ----------------------------------------------------------------------
# Critical-path attribution
# ----------------------------------------------------------------------
@dataclass
class CriticalPathReport:
    """Where a run's end-to-end time went, and who it waited on."""

    total_ms: float
    num_gpus: int
    iterations: List[IterationCost]
    buckets_ms: Dict[str, float]
    per_gpu_busy_ms: List[float]
    per_gpu_stall_ms: List[float]
    per_gpu_critical_ms: List[float]
    straggler_counts: List[int]
    critical_path_ms: float
    meta: Dict = field(default_factory=dict)

    @property
    def num_iterations(self) -> int:
        """Supersteps analyzed."""
        return len(self.iterations)

    def straggler_series(self) -> List[Optional[int]]:
        """Straggler GPU per superstep, in order."""
        return [cost.straggler for cost in self.iterations]

    def dominant_straggler(self) -> Optional[int]:
        """The GPU that straggled the most supersteps (None if empty)."""
        if not any(self.straggler_counts):
            return None
        return int(np.argmax(self.straggler_counts))

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (per-iteration detail included)."""
        return {
            "total_ms": float(self.total_ms),
            "critical_path_ms": float(self.critical_path_ms),
            "num_gpus": self.num_gpus,
            "num_iterations": self.num_iterations,
            "buckets_ms": {
                key: float(value)
                for key, value in self.buckets_ms.items()
            },
            "per_gpu_busy_ms": [float(v) for v in self.per_gpu_busy_ms],
            "per_gpu_stall_ms": [float(v) for v in self.per_gpu_stall_ms],
            "per_gpu_critical_ms": [
                float(v) for v in self.per_gpu_critical_ms
            ],
            "straggler_counts": [int(c) for c in self.straggler_counts],
            "dominant_straggler": self.dominant_straggler(),
            "iterations": [cost.as_dict() for cost in self.iterations],
        }


def analyze(source: AnalysisSource) -> CriticalPathReport:
    """Critical-path attribution of a run (see module docstring)."""
    header, costs = iteration_costs(source)
    try:
        num_gpus = int(header.get(
            "num_gpus", costs[0].busy_ms.size if costs else 0
        ))
    except (TypeError, ValueError):
        raise TraceFormatError(
            f"trace header: num_gpus is {header['num_gpus']!r}"
        ) from None
    busy = np.zeros(num_gpus)
    stall = np.zeros(num_gpus)
    on_critical = np.zeros(num_gpus)
    straggled = np.zeros(num_gpus, dtype=np.int64)
    buckets = {key: 0.0 for key in ATTRIBUTION_BUCKETS}
    total = 0.0
    critical_path_ms = 0.0
    for cost in costs:
        total += cost.wall_ms
        # supersteps are barrier-separated, so the critical path runs
        # through each one's straggler and then its coordinator tail
        critical_path_ms += cost.critical_ms
        critical_path_ms += max(cost.wall_ms - cost.critical_ms, 0.0)
        for key in ATTRIBUTION_BUCKETS:
            buckets[key] += cost.attribution_ms[key]
        if cost.busy_ms.size == num_gpus:
            busy += cost.busy_ms
            stall += cost.stall_ms
        if cost.straggler is not None:
            on_critical[cost.straggler] += cost.critical_ms
            straggled[cost.straggler] += 1
    return CriticalPathReport(
        total_ms=total,
        num_gpus=num_gpus,
        iterations=costs,
        buckets_ms=buckets,
        per_gpu_busy_ms=busy.tolist(),
        per_gpu_stall_ms=stall.tolist(),
        per_gpu_critical_ms=on_critical.tolist(),
        straggler_counts=straggled.tolist(),
        critical_path_ms=critical_path_ms,
        meta=header,
    )


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------
def format_report(report: CriticalPathReport) -> str:
    """Human-readable attribution summary."""
    total = max(report.total_ms, 1e-12)
    lines = [
        f"critical path: {report.total_ms:.2f} ms over "
        f"{report.num_iterations} supersteps "
        f"({report.num_gpus} GPUs)",
        "attribution:",
    ]
    for key in ATTRIBUTION_BUCKETS:
        value = report.buckets_ms.get(key, 0.0)
        lines.append(
            f"  {key:13s}: {value:10.2f} ms  ({value / total:6.1%})"
        )
    dominant = report.dominant_straggler()
    if dominant is not None:
        lines.append("stragglers (supersteps on the critical path):")
        for gpu in range(report.num_gpus):
            count = report.straggler_counts[gpu]
            if count:
                marker = "  <-- dominant" if gpu == dominant else ""
                lines.append(
                    f"  gpu{gpu}: {count:5d} supersteps, "
                    f"{report.per_gpu_critical_ms[gpu]:10.2f} ms"
                    f"{marker}"
                )
    return "\n".join(lines)
