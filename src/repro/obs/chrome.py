"""Chrome ``trace_event`` export (``chrome://tracing`` / Perfetto).

Span records map onto the Trace Event Format's JSON object form:

* complete events (``ph: "X"``) with microsecond ``ts``/``dur``;
* instant events (``ph: "i"``);
* metadata events (``ph: "M"``) naming one "process" per track, so the
  per-GPU rows render exactly like the paper's Figure 1 timeline.

Virtual-clock records keep their own timeline (simulated microseconds
since run start). Host-clock-only records (solver latencies and other
coordinator decisions) are exported under a parallel ``<track> (host)``
process rebased to the trace's first host timestamp — the two clock
domains never share a row, so bars are always internally consistent.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.obs.tracer import Sink, SpanRecord

__all__ = ["chrome_trace_events", "write_chrome_trace", "ChromeTraceSink"]

_US = 1e6  # seconds -> trace-event microseconds


def _track_order_key(track: str) -> tuple:
    # coordinator first, then gpu0..gpuN numerically, then the rest
    if track == "coordinator":
        return (0, 0, track)
    if track.startswith("gpu") and track[3:].split(" ")[0].isdigit():
        return (1, int(track[3:].split(" ")[0]), track)
    return (2, 0, track)


def chrome_trace_events(
    records: Iterable[SpanRecord],
    meta: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Convert span records to a ``traceEvents`` list."""
    records = list(records)
    events: List[Dict[str, object]] = []
    tracks: List[str] = []

    host_starts = [r.wall_start for r in records
                   if r.virtual_start is None and r.wall_start is not None]
    host_base = min(host_starts) if host_starts else 0.0

    def track_of(record: SpanRecord) -> str:
        if record.virtual_start is not None:
            return record.track
        return f"{record.track} (host)"

    for record in records:
        track = track_of(record)
        if track not in tracks:
            tracks.append(track)

    pids = {
        track: pid
        for pid, track in enumerate(sorted(tracks, key=_track_order_key))
    }
    for track, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": track},
        })

    for record in records:
        pid = pids[track_of(record)]
        if record.virtual_start is not None:
            ts = record.virtual_start * _US
            dur = (record.virtual_dur or 0.0) * _US
        else:
            ts = ((record.wall_start or 0.0) - host_base) * _US
            dur = (record.wall_dur or 0.0) * _US
        event: Dict[str, object] = {
            "name": record.name,
            "cat": record.cat,
            "pid": pid,
            "tid": 0,
            "ts": ts,
        }
        if record.kind == "instant":
            event["ph"] = "i"
            event["s"] = "p"  # process-scoped marker line
        else:
            event["ph"] = "X"
            event["dur"] = dur
        if record.attrs:
            event["args"] = _jsonable(record.attrs)
        events.append(event)
    return events


def _jsonable(attrs: Dict[str, object]) -> Dict[str, object]:
    """Coerce numpy scalars/arrays so ``json.dump`` never chokes."""
    out: Dict[str, object] = {}
    for key, value in attrs.items():
        if getattr(value, "ndim", None):
            value = value.tolist()  # numpy array
        elif hasattr(value, "item") and not isinstance(value, (list, dict)):
            value = value.item()  # numpy scalar (or 0-d array)
        out[key] = value
    return out


def write_chrome_trace(
    path: Union[str, Path],
    records: Iterable[SpanRecord],
    meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Write records as a Chrome/Perfetto-loadable JSON file."""
    path = Path(path)
    payload = {
        "traceEvents": chrome_trace_events(records, meta),
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }
    # dumps, not dump: only the one-shot encoder is the C one
    with open(path, "w") as handle:
        handle.write(json.dumps(payload))
    return path


class ChromeTraceSink(Sink):
    """Buffers records, writes the Chrome JSON on :meth:`close`.

    (The trace-event container is a single JSON object, so it cannot be
    streamed line-by-line the way :class:`~repro.obs.tracer.JsonlSink`
    does.)
    """

    def __init__(self, path: Union[str, Path],
                 meta: Optional[Dict[str, object]] = None) -> None:
        self._path = Path(path)
        self._meta = dict(meta or {})
        self._records: List[SpanRecord] = []
        self._written = False

    @property
    def path(self) -> Path:
        """Destination file."""
        return self._path

    def emit(self, record: SpanRecord) -> None:
        """Consume one completed record."""
        self._records.append(record)

    def close(self) -> None:
        """Write the buffered trace (idempotent)."""
        if self._written:
            return
        write_chrome_trace(self._path, self._records, self._meta)
        self._written = True
