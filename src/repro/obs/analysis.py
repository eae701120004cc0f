"""Trace analytics: critical path, attribution, what-if.

The paper's whole argument is an *attribution* argument — which GPU
straggles each superstep (Figures 1/8), how much the coordinator's
FSteal/OSteal decisions cost (Table IV), where the Figure 6 buckets
go. This module answers those questions offline, from a finished
:class:`~repro.runtime.metrics.RunResult` or an archived trace, in the
style of dPRO-like trace replayers for training stacks. Each superstep
is a BSP step: per-GPU ``busy`` spans fan into a barrier, followed by
a coordinator tail (message transfer, serialization, sync, and
decision overhead) that gates the next superstep.

* :func:`analyze` computes the virtual-time **critical path** — each
  superstep's straggler plus its coordinator tail, summed — and
  attributes end-to-end time per iteration to
  ``{compute, communication, stall, coordinator}`` buckets that sum to
  ``result.total_ms`` exactly, naming the **straggler GPU** of every
  superstep;
* :func:`replay` re-simulates the supersteps under a :class:`WhatIf`
  scenario (scale GPU *i*'s compute by *x*, zero the decision
  overhead, drop FSteal's rebalancing) with scaled durations. A no-op
  scenario reproduces the original end-to-end time exactly — the
  invariant the test suite pins.

Both accept a ``RunResult``, a ``(header, records)`` pair from
:func:`repro.runtime.trace.load_trace`, or a bare list of iteration
records, so archived runs in the registry analyze identically to live
ones. Durations are milliseconds throughout, matching ``total_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.runtime.metrics import RunResult
from repro.runtime.trace import trace_records

__all__ = [
    "IterationCost",
    "CriticalPathReport",
    "WhatIf",
    "ReplayReport",
    "iteration_costs",
    "analyze",
    "replay",
    "replay_walls",
    "format_report",
    "format_replay",
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
    breakdown_ms: Dict[str, float]
    attribution_ms: Dict[str, float]
    fsteal: bool = False
    stolen_edges: int = 0
    frontier_edges: int = 0
    frontier_size: int = 0
    group_size: Optional[int] = None

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
        breakdown_ms=breakdown,
        attribution_ms=attribution,
        fsteal=bool(record.get("fsteal", False)),
        stolen_edges=int(record.get("stolen_edges", 0) or 0),
        frontier_edges=int(record.get("frontier_edges", 0) or 0),
        frontier_size=int(record.get("frontier_size", 0) or 0),
        group_size=record.get("group_size"),
    )


def iteration_costs(
    source: AnalysisSource,
) -> Tuple[Dict, List[IterationCost]]:
    """``(header, per-superstep costs)`` — the one trace-record parser.

    The result is itself an accepted source (parsed costs pass through
    untouched), so a command parses its trace once and hands the pair
    to :func:`analyze`, :func:`replay` and :func:`repro.replay.replay_run`
    alike. Anything malformed in a record is a :class:`TraceFormatError`.
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
# What-if replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WhatIf:
    """A hypothetical to re-simulate the supersteps under.

    Attributes
    ----------
    gpu_compute_scale:
        Per-GPU compute scale factors, e.g. ``{3: 0.5}`` asks "what if
        GPU 3 computed twice as fast". Only the compute share of the
        GPU's busy time scales; its communication share is preserved
        (the share is the superstep's mean compute fraction, the finest
        split the trace carries).
    compute_scale:
        Like ``gpu_compute_scale`` but applied to every GPU.
    zero_decision_overhead:
        Zero the coordinator's per-superstep decision overhead — the
        "what if the solver were free" Table IV hypothetical.
    drop_fsteal:
        Undo FSteal's rebalancing: in supersteps where FSteal applied,
        the stolen edges are charged back to the superstep's straggler
        at the group's mean cost per edge — a first-order estimate of
        the un-balanced critical path.
    """

    gpu_compute_scale: Mapping[int, float] = field(default_factory=dict)
    compute_scale: float = 1.0
    zero_decision_overhead: bool = False
    drop_fsteal: bool = False

    def is_noop(self) -> bool:
        """True when the scenario changes nothing."""
        return (
            not self.zero_decision_overhead
            and not self.drop_fsteal
            and self.compute_scale == 1.0
            and all(x == 1.0 for x in self.gpu_compute_scale.values())
        )

    def describe(self) -> str:
        """Human-readable scenario label."""
        parts = []
        for gpu, x in sorted(self.gpu_compute_scale.items()):
            parts.append(f"gpu{gpu} compute x{x:g}")
        if self.compute_scale != 1.0:
            parts.append(f"all compute x{self.compute_scale:g}")
        if self.zero_decision_overhead:
            parts.append("decision overhead = 0")
        if self.drop_fsteal:
            parts.append("FSteal dropped")
        return ", ".join(parts) if parts else "no-op"


@dataclass
class ReplayReport:
    """Outcome of re-simulating a run under a :class:`WhatIf`."""

    scenario: WhatIf
    baseline_ms: float
    total_ms: float
    wall_ms_series: List[float]

    @property
    def delta_ms(self) -> float:
        """Predicted change in end-to-end time."""
        return self.total_ms - self.baseline_ms

    @property
    def speedup(self) -> float:
        """Baseline over replayed time (>1 means the scenario helps)."""
        return self.baseline_ms / self.total_ms if self.total_ms else 1.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view."""
        return {
            "scenario": self.scenario.describe(),
            "baseline_ms": float(self.baseline_ms),
            "total_ms": float(self.total_ms),
            "delta_ms": float(self.delta_ms),
            "speedup": float(self.speedup),
            "wall_ms_series": [float(w) for w in self.wall_ms_series],
        }


def replay_walls(
    costs: Sequence[IterationCost],
    deltas: Sequence[Sequence[float]],
    floors: Optional[Sequence[float]] = None,
) -> List[float]:
    """The anchoring rule of every replay, written once.

    ``deltas`` holds one per-superstep series of wall-time deltas (ms)
    per hypothetical: ``wall'(k) = wall(k) + sum_h deltas[h][k]``,
    never below ``floors[k]`` (default zero). The recorded wall is the
    anchor, so deltas that are all ``0.0`` reproduce it bit for bit —
    the no-op invariant :func:`replay` and
    :func:`repro.replay.replay_run` both pin.
    """
    walls = []
    for k, cost in enumerate(costs):
        wall = cost.wall_ms
        for series in deltas:
            wall = wall + series[k]
        walls.append(max(wall, floors[k] if floors else 0.0))
    return walls


def _scale_compute(cost: IterationCost, whatif: WhatIf) -> np.ndarray:
    """Per-GPU busy time under the scenario's compute scales."""
    scales = dict(whatif.gpu_compute_scale)
    if whatif.compute_scale != 1.0:
        for gpu in cost.active:
            scales[gpu] = scales.get(gpu, 1.0) * whatif.compute_scale
    scales = {gpu: x for gpu, x in scales.items() if x != 1.0}
    if not scales:
        return cost.busy_ms
    busy = cost.busy_ms.copy()
    if cost.mean_busy_ms > 0:
        # only the compute share of busy scales; the trace carries
        # the group's mean compute fraction, so use that
        compute = cost.breakdown_ms.get("compute", cost.mean_busy_ms)
        fraction = min(max(compute / cost.mean_busy_ms, 0.0), 1.0)
        for gpu, x in scales.items():
            if 0 <= gpu < busy.size:
                busy[gpu] *= 1.0 + (x - 1.0) * fraction
    return busy


def _undo_fsteal(cost: IterationCost, busy: np.ndarray) -> np.ndarray:
    """``busy`` with FSteal's stolen edges charged back to the
    straggler at the group's mean cost per edge."""
    if not (cost.fsteal and cost.stolen_edges):
        return busy
    busy = busy.copy()
    if cost.frontier_edges > 0 and cost.straggler is not None:
        per_edge = float(busy[cost.active].sum()) / cost.frontier_edges
        busy[cost.straggler] += cost.stolen_edges * per_edge
    return busy


def _whatif_critical(cost: IterationCost, whatif: WhatIf) -> float:
    """The superstep's barrier (max busy over the active group) under
    the scenario; the recorded one when nothing touches busy."""
    busy = _scale_compute(cost, whatif)
    if whatif.drop_fsteal:
        busy = _undo_fsteal(cost, busy)
    if busy is cost.busy_ms or not cost.active:
        return cost.critical_ms
    return float(busy[np.asarray(cost.active)].max())


def replay(source: AnalysisSource,
           whatif: Optional[WhatIf] = None) -> ReplayReport:
    """Re-simulate the run's supersteps with scaled durations.

    Per superstep the replay recomputes the barrier time (max scaled
    busy over the active group) and shifts the recorded wall time by
    the barrier delta; the coordinator tail rides along unchanged
    unless the scenario zeroes the decision overhead, and then never
    shrinks below the barrier. A no-op scenario therefore returns the
    original per-superstep walls bit-exactly.
    """
    whatif = whatif or WhatIf()
    __, costs = iteration_costs(source)
    barriers = [_whatif_critical(cost, whatif) for cost in costs]
    deltas = [[
        barrier - cost.critical_ms
        for barrier, cost in zip(barriers, costs)
    ]]
    if whatif.zero_decision_overhead:
        deltas.append([
            -float(cost.breakdown_ms.get("overhead", 0.0))
            for cost in costs
        ])
    walls = replay_walls(
        costs, deltas,
        floors=barriers if whatif.zero_decision_overhead else None,
    )
    baseline = 0.0
    for cost in costs:
        baseline += cost.wall_ms
    return ReplayReport(
        scenario=whatif,
        baseline_ms=baseline,
        total_ms=float(sum(walls)),
        wall_ms_series=walls,
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


def format_replay(result: ReplayReport) -> str:
    """Human-readable what-if outcome."""
    return (
        f"what-if [{result.scenario.describe()}]: "
        f"{result.baseline_ms:.2f} ms -> {result.total_ms:.2f} ms "
        f"({result.delta_ms:+.2f} ms, {result.speedup:.2f}x)"
    )
