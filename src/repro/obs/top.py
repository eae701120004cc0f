"""``repro top``: a terminal dashboard over live or recorded telemetry.

The serving-layer story needs an operator view: what are the GPUs
doing *right now*? :class:`TopModel` folds a ``repro-live/1`` event
stream (see :mod:`repro.obs.live`) into the current picture of a run —
per-GPU utilization, frontier size, steal traffic, chaos fault
counters — and :func:`render_frame` draws it as a fixed-width text
frame. Two drivers feed it:

* :func:`follow_stream` tails a live stream file, redrawing as span
  events arrive (the producer is a concurrently-running engine with a
  :class:`~repro.obs.live.StreamingSink`);
* :func:`play_back` reconstructs the same event sequence from a
  recorded registry run's archived trace and plays it back, optionally
  paced at a multiple of the run's virtual time — the flight-recorder
  view of a run that already happened.

Both drivers share one model, so the live view and the playback of the
same run show identical numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional

from repro.obs.analysis import iteration_costs
from repro.obs.export import iteration_spans
from repro.runtime.metrics import IterationRecord, TimeBreakdown

__all__ = [
    "TopModel",
    "render_frame",
    "follow_stream",
    "play_back",
    "trace_record_events",
]

#: Sparkline glyphs, lowest to highest.
_SPARKS = "▁▂▃▄▅▆▇█"

#: Frontier-history window kept for the sparkline.
_HISTORY = 60


@dataclass
class _GpuState:
    busy: float = 0.0
    stall: float = 0.0

    @property
    def utilization(self) -> float:
        total = self.busy + self.stall
        return self.busy / total if total > 0 else 0.0


@dataclass
class TopModel:
    """Current state of a run, folded from stream events."""

    meta: Dict[str, object] = field(default_factory=dict)
    iteration: Optional[int] = None
    frontier_size: int = 0
    frontier_edges: int = 0
    group_size: Optional[int] = None
    fsteal_iterations: int = 0
    stolen_edges: int = 0
    virtual_seconds: float = 0.0
    supersteps: int = 0
    chaos_counts: Dict[str, int] = field(default_factory=dict)
    gpus: Dict[int, _GpuState] = field(default_factory=dict)
    frontier_history: List[int] = field(default_factory=list)
    last_snapshot: Optional[Dict] = None
    ended: bool = False

    def feed(self, event: Dict) -> bool:
        """Fold one stream event in; True when the frame changed."""
        if event.get("format"):
            self.meta = {
                k: v for k, v in event.items()
                if k not in ("format", "version")
            }
            num_gpus = self.meta.get("num_gpus")
            if isinstance(num_gpus, int):
                for gpu in range(num_gpus):
                    self.gpus.setdefault(gpu, _GpuState())
            return True
        kind = event.get("event")
        if kind == "metrics":
            self.last_snapshot = event.get("snapshot")
            return False
        if kind == "end":
            self.ended = True
            return True
        if kind != "span" and "name" not in event:
            return False
        return self._feed_span(event)

    def _feed_span(self, event: Dict) -> bool:
        name = event.get("name")
        attrs = event.get("attrs") or {}
        if event.get("cat") == "chaos":
            short = str(name).removeprefix("chaos.")
            self.chaos_counts[short] = self.chaos_counts.get(short, 0) + 1
            return True
        if name == "superstep":
            self.supersteps += 1
            self.iteration = attrs.get("iteration", self.iteration)
            self.frontier_size = attrs.get(
                "frontier_size", self.frontier_size
            )
            self.frontier_edges = attrs.get(
                "frontier_edges", self.frontier_edges
            )
            self.group_size = attrs.get("group_size", self.group_size)
            if attrs.get("fsteal"):
                self.fsteal_iterations += 1
            self.stolen_edges += int(attrs.get("stolen_edges") or 0)
            start = event.get("virtual_start")
            dur = event.get("virtual_dur")
            if start is not None and dur is not None:
                self.virtual_seconds = max(
                    self.virtual_seconds, float(start) + float(dur)
                )
            self.frontier_history.append(int(self.frontier_size))
            del self.frontier_history[:-_HISTORY]
            return True
        if name in ("busy", "stall"):
            gpu = attrs.get("gpu")
            if gpu is None:
                track = str(event.get("track", ""))
                if track.startswith("gpu") and track[3:].isdigit():
                    gpu = int(track[3:])
            if gpu is None:
                return False
            state = self.gpus.setdefault(int(gpu), _GpuState())
            dur = float(event.get("virtual_dur") or 0.0)
            if name == "busy":
                state.busy += dur
            else:
                state.stall += dur
            return False  # the superstep span triggers the redraw
        return False


def _snapshot_value(
    snapshot: Optional[Dict], name: str
) -> Optional[float]:
    """One instrument's scalar out of a registry snapshot.

    Counters expose ``total``, gauges ``value`` — whichever the named
    instrument carries. ``None`` when the metric (or the snapshot
    itself) is absent.
    """
    if not snapshot:
        return None
    instrument = snapshot.get(name)
    if not isinstance(instrument, dict):
        return None
    for key in ("value", "total"):
        if instrument.get(key) is not None:
            return float(instrument[key])
    return None


def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "█" * filled + "·" * (width - filled)


def _sparkline(values: List[int], width: int = 24) -> str:
    if not values:
        return ""
    tail = values[-width:]
    peak = max(tail) or 1
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1, int(v / peak * (len(_SPARKS) - 1)))]
        for v in tail
    )


def render_frame(model: TopModel, width: int = 72) -> str:
    """Draw the model as one fixed-width text frame."""
    meta = model.meta
    title_bits = [
        str(meta.get(key))
        for key in ("engine", "algorithm", "graph")
        if meta.get(key)
    ]
    title = "/".join(title_bits) or "repro run"
    status = "done" if model.ended else "live"
    lines = [
        f"repro top — {title} [{status}]".ljust(width),
        (
            f"iter {model.iteration if model.iteration is not None else '-'}"
            f"  virtual {model.virtual_seconds * 1e3:.2f} ms"
            f"  frontier {model.frontier_size}"
            f" ({model.frontier_edges} edges)"
        ).ljust(width),
        (
            f"group {model.group_size if model.group_size is not None else '-'}"
            f"  fsteal iters {model.fsteal_iterations}"
            f"  stolen edges {model.stolen_edges}"
        ).ljust(width),
    ]
    spark = _sparkline(model.frontier_history)
    if spark:
        lines.append(f"frontier {spark}".ljust(width))
    for gpu in sorted(model.gpus):
        state = model.gpus[gpu]
        util = state.utilization
        lines.append(
            f"gpu{gpu:<3d} {_bar(util)} {util * 100:5.1f}%  "
            f"busy {state.busy * 1e3:9.2f} ms  "
            f"stall {state.stall * 1e3:8.2f} ms".ljust(width)
        )
    if model.chaos_counts:
        faults = "  ".join(
            f"{kind}:{count}"
            for kind, count in sorted(model.chaos_counts.items())
        )
        lines.append(f"chaos  {faults}".ljust(width))
    snapshot = model.last_snapshot
    workers = _snapshot_value(snapshot, "backend.workers")
    if workers is not None:
        tasks = _snapshot_value(snapshot, "backend.tasks") or 0
        dispatch = _snapshot_value(snapshot, "backend.dispatch_seconds")
        collect = _snapshot_value(snapshot, "backend.collect_seconds")
        startup = _snapshot_value(snapshot, "backend.startup_seconds")
        lines.append(
            f"backend  {int(workers)} workers  {int(tasks)} tasks  "
            f"startup {(startup or 0) * 1e3:.1f} ms  "
            f"dispatch {(dispatch or 0) * 1e3:.1f} ms  "
            f"collect {(collect or 0) * 1e3:.1f} ms".ljust(width)
        )
    entries = _snapshot_value(snapshot, "ledger.entries")
    if entries is not None:
        rmsre = _snapshot_value(snapshot, "costmodel.rmsre_online")
        drift = _snapshot_value(snapshot, "ledger.drift_z")
        samples = _snapshot_value(snapshot, "ledger.samples") or 0
        skipped = _snapshot_value(snapshot, "ledger.skipped_samples") or 0
        lines.append(
            f"ledger   {int(entries)} decisions  "
            f"{int(samples)} samples ({int(skipped)} skipped)  "
            f"rmsre {rmsre:.4f}  "
            f"drift z {drift:+.2f}".ljust(width)
            if rmsre is not None and drift is not None else
            f"ledger   {int(entries)} decisions  "
            f"{int(samples)} samples ({int(skipped)} skipped)".ljust(width)
        )
    return "\n".join(lines)


def _iteration_record(cost) -> IterationRecord:
    """The engine record one archived superstep's costs came from."""
    breakdown = TimeBreakdown(**{
        bucket.name: float(cost.breakdown_ms.get(bucket.name, 0.0)) / 1e3
        for bucket in fields(TimeBreakdown)
    })
    return IterationRecord(
        iteration=cost.iteration,
        frontier_size=cost.frontier_size,
        frontier_edges=cost.frontier_edges,
        active_workers=cost.active,
        busy_seconds=cost.busy_ms / 1e3,
        stall_seconds=cost.stall_ms / 1e3,
        wall_seconds=cost.wall_ms / 1e3,
        breakdown=breakdown,
        fsteal_applied=cost.fsteal,
        osteal_group_size=cost.group_size,
        stolen_edges=cost.stolen_edges,
    )


def trace_record_events(header: Dict, records: List) -> List[Dict]:
    """Rebuild a run's stream events from its archived trace.

    ``records`` are raw trace records or parsed ``IterationCost`` s
    (:func:`repro.obs.analysis.iteration_costs` reads them either
    way). The result is what a :class:`StreamingSink` saw live: a
    header, then per iteration the spans
    :func:`~repro.obs.export.iteration_spans` emits, the
    ``superstep`` span moved last so the frame it draws already holds
    that iteration's ``busy``/``stall``.
    """
    header, costs = iteration_costs((header, records))
    events = [{"format": "repro-live", "version": 1, **header}]
    engine = str(header.get("engine", ""))
    clock = 0.0
    for cost in costs:
        record = _iteration_record(cost)
        superstep, *workers = iteration_spans(record, clock, engine=engine)
        events.extend(
            {"event": "span", **span.as_dict()}
            for span in (*workers, superstep)
        )
        clock += record.wall_seconds
    events.append({"event": "end", "spans": len(events) - 1})
    return events


def _emit_frame(
    model: TopModel, write: Callable[[str], None], ansi: bool
) -> None:
    frame = render_frame(model)
    if ansi:
        write("\x1b[2J\x1b[H" + frame + "\n")
    else:
        write(frame + "\n\n")


def play_back(
    header: Dict,
    records: List,
    write: Callable[[str], None],
    speed: float = 0.0,
    frames: Optional[int] = None,
    ansi: bool = True,
) -> TopModel:
    """Play an archived trace (raw or parsed) back as dashboard frames.

    ``speed`` paces playback at that multiple of the run's virtual
    time (0 = as fast as possible); ``frames`` caps the number of
    redraws (handy for CI smoke tests); a final frame is always drawn.
    """
    model = TopModel()
    drawn = 0
    for event in trace_record_events(header, records):
        changed = model.feed(event)
        if not changed or model.ended:
            continue
        if frames is not None and drawn >= frames:
            continue
        if speed > 0 and event.get("name") == "superstep":
            time.sleep(float(event.get("virtual_dur") or 0.0) / speed)
        _emit_frame(model, write, ansi)
        drawn += 1
    _emit_frame(model, write, ansi)
    return model


def follow_stream(
    path,
    write: Callable[[str], None],
    follow: bool = False,
    ansi: bool = True,
    poll_seconds: float = 0.2,
    timeout: Optional[float] = None,
    frames: Optional[int] = None,
) -> TopModel:
    """Tail a recorded or still-growing live-stream file into frames.

    Without ``follow`` the file is read once and the final frame drawn.
    With ``follow`` the file is polled until the producer writes its
    ``end`` event (or ``timeout`` seconds pass). Unparseable trailing
    data is treated as "producer mid-write" and retried.
    """
    from repro.obs.live import iter_stream_lines

    model = TopModel()
    consumed = 0
    deadline = (
        time.monotonic() + timeout if timeout is not None else None
    )
    drawn = 0
    while True:
        events = list(iter_stream_lines(path))
        for event in events[consumed:]:
            changed = model.feed(event)
            if changed and not model.ended and follow:
                if frames is None or drawn < frames:
                    _emit_frame(model, write, ansi)
                    drawn += 1
        consumed = len(events)
        if model.ended or not follow:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        time.sleep(poll_seconds)
    _emit_frame(model, write, ansi)
    return model
