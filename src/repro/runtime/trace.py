"""Run-trace export and rendering.

Tools for looking *inside* a run the way the paper's Figure 1 and
Figure 8 do:

* :func:`trace_records` / :func:`save_trace` — per-iteration records as
  plain dicts / JSON-lines, for offline analysis;
* :func:`render_timeline` — an ASCII Gantt view of per-GPU busy/stall
  per iteration (the Figure 1 picture in a terminal);
* :func:`utilization_report` — aggregate per-GPU busy/stall shares.

The timeline and utilization views read each record's per-GPU
``busy_seconds`` / ``stall_seconds`` over its ``active_workers`` — the
durations :func:`repro.obs.export.iteration_spans` turns into the
``busy`` / ``stall`` spans of a live trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.documents import load_json_lines
from repro.errors import TraceFormatError
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
    step = max(1, result.num_iterations // max_iterations)
    lines = [
        f"{result.engine}/{result.algorithm} on {result.graph_name} — "
        f"'#' busy, '.' stall, '-' evicted",
    ]
    for idx in range(0, result.num_iterations, step):
        record = result.iterations[idx]
        busy, stall = record.busy_seconds, record.stall_seconds
        active = set(record.active_workers)
        critical = max(
            (float(busy[gpu]) + float(stall[gpu]) for gpu in active),
            default=0.0,
        )
        critical = max(critical, 1e-12)
        lines.append(
            f"iter {idx:5d}  wall {record.wall_seconds * 1e3:8.3f} ms  "
            f"n={record.num_active}"
        )
        for gpu in range(result.num_gpus):
            if gpu not in active:
                lines.append(f"  gpu{gpu}  " + "-" * width)
                continue
            busy_cells = int(round(width * float(busy[gpu]) / critical))
            stall_cells = int(round(width * float(stall[gpu]) / critical))
            stall_cells = min(stall_cells, width - busy_cells)
            lines.append(
                f"  gpu{gpu}  " + "#" * busy_cells + "." * stall_cells
            )
    return "\n".join(lines)


def utilization_report(result: RunResult) -> Dict[str, object]:
    """Aggregate per-GPU utilization over the whole run.

    Sums each GPU's busy and stall seconds over the iterations it was
    active in, in iteration order — identical numbers to summing the
    ``busy``/``stall`` spans of a Chrome trace of the same run.
    """
    busy = np.zeros(result.num_gpus)
    stall = np.zeros(result.num_gpus)
    for record in result.iterations:
        active = record.active_workers
        busy[active] += record.busy_seconds[active]
        stall[active] += record.stall_seconds[active]
    denom = np.maximum(busy + stall, 1e-12)
    return {
        "per_gpu_busy_ms": (busy * 1e3).round(3).tolist(),
        "per_gpu_stall_ms": (stall * 1e3).round(3).tolist(),
        "per_gpu_utilization": (busy / denom).round(4).tolist(),
        "overall_stall_fraction": result.stall_fraction(),
        "iterations": result.num_iterations,
        "total_ms": result.total_ms,
    }
