"""Run-trace export and rendering.

Tools for looking *inside* a run the way the paper's Figure 1 and
Figure 8 do:

* :func:`trace_records` / :func:`save_trace` — per-iteration records as
  plain dicts / JSON-lines, for offline analysis;
* :func:`render_timeline` — an ASCII Gantt view of per-GPU busy/stall
  per iteration (the Figure 1 picture in a terminal);
* :func:`utilization_report` — aggregate per-GPU busy/stall shares.

The timeline and utilization views are computed from the span stream of
:func:`repro.obs.export.result_to_spans` — the same records a live
:class:`~repro.obs.tracer.Tracer` emits — so offline reports and
interactive traces can never disagree about what an iteration did.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.documents import load_json_lines
from repro.errors import TraceFormatError
from repro.obs.export import gpu_track, result_to_spans
from repro.runtime.metrics import RunResult

__all__ = [
    "trace_records",
    "save_trace",
    "load_trace",
    "render_timeline",
    "utilization_report",
]


def trace_records(result: RunResult) -> List[Dict]:
    """One JSON-friendly dict per iteration."""
    records = []
    for record in result.iterations:
        records.append({
            "iteration": record.iteration,
            "frontier_size": record.frontier_size,
            "frontier_edges": record.frontier_edges,
            "active_workers": list(record.active_workers),
            "busy_ms": [round(b * 1e3, 6)
                        for b in record.busy_seconds.tolist()],
            "stall_ms": [round(s * 1e3, 6)
                         for s in record.stall_seconds.tolist()],
            "wall_ms": record.wall_seconds * 1e3,
            "breakdown_ms": record.breakdown.scaled_ms(),
            "fsteal": record.fsteal_applied,
            "group_size": record.osteal_group_size,
            "stolen_edges": record.stolen_edges,
        })
    return records


def save_trace(result: RunResult, path: Union[str, Path]) -> None:
    """Write the run trace as JSON lines (one iteration per line).

    The first line is a run-level header.
    """
    path = Path(path)
    with open(path, "w") as handle:
        header = {
            "engine": result.engine,
            "algorithm": result.algorithm,
            "graph": result.graph_name,
            "num_gpus": result.num_gpus,
            "total_ms": result.total_ms,
            "converged": result.converged,
        }
        handle.write(json.dumps(header) + "\n")
        for record in trace_records(result):
            handle.write(json.dumps(record) + "\n")


def load_trace(path: Union[str, Path]) -> tuple[Dict, List[Dict]]:
    """Read a trace file back: ``(header, iteration_records)``.

    Raises
    ------
    TraceFormatError
        If the file is missing, binary or empty, a line is not valid
        JSON (truncated writes included), or a line is not a JSON
        object. The message carries the file and 1-based line number.
    """
    lines = load_json_lines(path, TraceFormatError, "trace")
    if not lines:
        raise TraceFormatError(f"{path}: empty trace")
    return lines[0], lines[1:]


def _spans_by_iteration(result: RunResult) -> Dict[int, Dict]:
    """Index the run's span stream: iteration -> its worker spans.

    Returns ``{iteration: {"superstep": SpanRecord,
    "workers": {gpu: {"busy": dur, "stall": dur}}}}``.
    """
    indexed: Dict[int, Dict] = {}
    for span in result_to_spans(result):
        iteration = span.attrs.get("iteration")
        if iteration is None or span.kind != "span":
            continue
        entry = indexed.setdefault(iteration, {"superstep": None,
                                               "workers": {}})
        if span.name == "superstep":
            entry["superstep"] = span
        elif span.name in ("busy", "stall"):
            gpu = span.attrs["gpu"]
            entry["workers"].setdefault(gpu, {})[span.name] = \
                span.virtual_dur
    return indexed


def render_timeline(
    result: RunResult,
    max_iterations: int = 30,
    width: int = 40,
) -> str:
    """ASCII Gantt chart: one row per (iteration, GPU).

    ``#`` is busy time, ``.`` is stall, ``-`` marks a worker evicted by
    OSteal (out of the group, not waiting). Bars are normalized to the
    iteration's critical path — the largest per-GPU busy+stall sum — so
    a fully utilized GPU fills the row and a stalling one shows its
    idle tail at true scale.
    """
    if not result.iterations:
        return "(empty run)"
    indexed = _spans_by_iteration(result)
    step = max(1, result.num_iterations // max_iterations)
    lines = [
        f"{result.engine}/{result.algorithm} on {result.graph_name} — "
        f"'#' busy, '.' stall, '-' evicted",
    ]
    for idx in range(0, result.num_iterations, step):
        record = result.iterations[idx]
        entry = indexed.get(record.iteration, {"workers": {}})
        workers = entry["workers"]
        critical = max(
            (sum(spans.values()) for spans in workers.values()),
            default=0.0,
        )
        critical = max(critical, 1e-12)
        lines.append(
            f"iter {idx:5d}  wall {record.wall_seconds * 1e3:8.3f} ms  "
            f"n={record.num_active}"
        )
        active = set(record.active_workers)
        for gpu in range(result.num_gpus):
            if gpu not in active:
                lines.append(f"  gpu{gpu}  " + "-" * width)
                continue
            spans = workers.get(gpu, {})
            busy_cells = int(
                round(width * spans.get("busy", 0.0) / critical)
            )
            stall_cells = int(
                round(width * spans.get("stall", 0.0) / critical)
            )
            stall_cells = min(stall_cells, width - busy_cells)
            lines.append(
                f"  gpu{gpu}  " + "#" * busy_cells + "." * stall_cells
            )
    return "\n".join(lines)


def utilization_report(result: RunResult) -> Dict[str, object]:
    """Aggregate per-GPU utilization over the whole run.

    Sums the ``busy``/``stall`` worker spans of the run's span stream —
    identical numbers to a Chrome trace of the same run.
    """
    busy = np.zeros(result.num_gpus)
    stall = np.zeros(result.num_gpus)
    tracks = {gpu_track(gpu): gpu for gpu in range(result.num_gpus)}
    for span in result_to_spans(result):
        gpu = tracks.get(span.track)
        if gpu is None or span.kind != "span":
            continue
        if span.name == "busy":
            busy[gpu] += span.virtual_dur
        elif span.name == "stall":
            stall[gpu] += span.virtual_dur
    denom = np.maximum(busy + stall, 1e-12)
    return {
        "per_gpu_busy_ms": (busy * 1e3).round(3).tolist(),
        "per_gpu_stall_ms": (stall * 1e3).round(3).tolist(),
        "per_gpu_utilization": (busy / denom).round(4).tolist(),
        "overall_stall_fraction": result.stall_fraction(),
        "iterations": result.num_iterations,
        "total_ms": result.total_ms,
    }
