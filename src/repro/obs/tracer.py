"""Structured tracing: nestable spans over two clocks.

The runtime runs on a *virtual* clock (simulated GPU seconds) while the
arbitrator's decision code runs on the *host* clock (real wall time of
the MILP solves, cost-model predictions, ...). A :class:`SpanRecord`
can carry either or both, so one trace tells the paper's two stories at
once: the Figure 1/8 per-GPU timeline (virtual) and the Table IV
decision-overhead story (host).

Usage::

    tracer = Tracer(sinks=[InMemorySink()])
    with tracer.span("gum.fsteal.milp", solver="greedy") as sp:
        solution = solver.solve(problem)
        sp.set(objective=solution.objective)
    tracer.virtual_span("busy", start=t, dur=busy_j, track=f"gpu{j}")

Call sites in hot paths guard on ``tracer.enabled`` before computing
attributes; :data:`NULL_TRACER` (the default everywhere) makes every
operation a no-op so an uninstrumented run pays nothing but a handful
of attribute reads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = [
    "SpanRecord",
    "Span",
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]

#: Track (Chrome "process") the coordinator's decisions render on.
COORDINATOR_TRACK = "coordinator"


@dataclass(slots=True)
class SpanRecord:
    """One completed span or instant event.

    ``wall_*`` are host seconds relative to the tracer's epoch;
    ``virtual_*`` are simulated seconds relative to the run's start.
    Either clock may be absent (``None``) — the engine's per-GPU
    busy/stall spans are purely virtual, the arbitrator's solver spans
    purely host-timed.
    """

    name: str
    track: str = "host"
    kind: str = "span"  # "span" | "instant"
    cat: str = "repro"
    wall_start: Optional[float] = None
    wall_dur: Optional[float] = None
    virtual_start: Optional[float] = None
    virtual_dur: Optional[float] = None
    depth: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (``None`` clocks omitted)."""
        out: Dict[str, object] = {
            "name": self.name,
            "track": self.track,
            "kind": self.kind,
            "cat": self.cat,
            "depth": self.depth,
        }
        if self.wall_start is not None:
            out["wall_start"] = self.wall_start
            out["wall_dur"] = self.wall_dur
        if self.virtual_start is not None:
            out["virtual_start"] = self.virtual_start
            out["virtual_dur"] = self.virtual_dur
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Span:
    """Live handle for an open span; records host time on exit."""

    __slots__ = ("_tracer", "_record", "_started")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record
        self._started = 0.0

    def set(self, **attrs) -> "Span":
        """Attach structured attributes to the span."""
        self._record.attrs.update(attrs)
        return self

    def set_virtual(self, start: float, dur: float) -> "Span":
        """Pin the span to the virtual clock as well."""
        self._record.virtual_start = float(start)
        self._record.virtual_dur = float(dur)
        return self

    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        self._record.wall_start = self._started - self._tracer.epoch
        self._record.depth = self._tracer._enter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._record.wall_dur = time.perf_counter() - self._started
        self._tracer._exit()
        self._tracer.emit(self._record)
        return False


class Sink:
    """Receives completed records; subclasses define where they go."""

    def emit(self, record: SpanRecord) -> None:
        """Consume one completed record."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class InMemorySink(Sink):
    """Keeps every record in a list (tests, reporting, Chrome export)."""

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []

    def emit(self, record: SpanRecord) -> None:
        """Consume one completed record."""
        self.records.append(record)


class JsonlSink(Sink):
    """Streams records as JSON lines; the first line is a header."""

    def __init__(self, path: Union[str, Path],
                 meta: Optional[Dict[str, object]] = None) -> None:
        self._path = Path(path)
        self._handle = open(self._path, "w")
        header = {"format": "repro-trace", "version": 1}
        header.update(meta or {})
        self._handle.write(json.dumps(header) + "\n")

    @property
    def path(self) -> Path:
        """Destination file."""
        return self._path

    def emit(self, record: SpanRecord) -> None:
        """Consume one completed record."""
        self._handle.write(json.dumps(record.as_dict()) + "\n")

    def close(self) -> None:
        """Flush and release resources (idempotent)."""
        if not self._handle.closed:
            self._handle.close()


class Tracer:
    """Span factory fanning completed records out to sinks.

    Parameters
    ----------
    sinks:
        Initial destinations; more can be attached with
        :meth:`add_sink`.
    meta:
        Run-level annotations exported alongside the trace (engine,
        graph, algorithm, ...).
    """

    enabled: bool = True

    def __init__(
        self,
        sinks: Optional[List[Sink]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self._sinks: List[Sink] = list(sinks or [])
        self.meta: Dict[str, object] = dict(meta or {})
        self.epoch = time.perf_counter()
        self._depth = 0

    # -- span construction ---------------------------------------------
    def span(self, name: str, track: str = "host", cat: str = "repro",
             **attrs) -> Span:
        """Open a host-timed span (use as a context manager)."""
        return Span(self, SpanRecord(name=name, track=track, cat=cat,
                                     attrs=dict(attrs)))

    def virtual_span(
        self,
        name: str,
        start: float,
        dur: float,
        track: str = COORDINATOR_TRACK,
        cat: str = "virtual",
        **attrs,
    ) -> None:
        """Record a span measured on the virtual clock (no host time)."""
        self.emit(SpanRecord(
            name=name, track=track, cat=cat,
            virtual_start=float(start), virtual_dur=float(dur),
            attrs=dict(attrs),
        ))

    def instant(
        self,
        name: str,
        track: str = COORDINATOR_TRACK,
        cat: str = "virtual",
        virtual_ts: Optional[float] = None,
        **attrs,
    ) -> None:
        """Record a zero-duration marker event."""
        record = SpanRecord(name=name, track=track, kind="instant",
                            cat=cat, attrs=dict(attrs))
        if virtual_ts is not None:
            record.virtual_start = float(virtual_ts)
            record.virtual_dur = 0.0
        else:
            record.wall_start = time.perf_counter() - self.epoch
            record.wall_dur = 0.0
        self.emit(record)

    # -- plumbing -------------------------------------------------------
    def _enter(self) -> int:
        depth = self._depth
        self._depth += 1
        return depth

    def _exit(self) -> None:
        self._depth = max(0, self._depth - 1)

    def emit(self, record: SpanRecord) -> None:
        """Deliver a completed record to every sink."""
        for sink in self._sinks:
            sink.emit(record)

    def add_sink(self, sink: Sink) -> None:
        """Attach another destination."""
        self._sinks.append(sink)

    @property
    def sinks(self) -> List[Sink]:
        """Attached destinations."""
        return list(self._sinks)

    def close(self) -> None:
        """Close every sink (idempotent).

        A sink whose close raises does not keep the others open: all
        are tried, then the first error propagates.
        """
        first_error = None
        for sink in self._sinks:
            try:
                sink.close()
            except Exception as exc:
                first_error = first_error or exc
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close on every exit path: a run that raises still leaves
        its trace written."""
        self.close()


class _NullSpan:
    """Reusable no-op span handle."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def set_virtual(self, start: float, dur: float) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracer: every operation is a no-op.

    The single shared instance :data:`NULL_TRACER` is the default
    everywhere, so uninstrumented runs never allocate records. The
    acceptance bound (tracing off must not move ``total_ms``) holds by
    construction: virtual time is charged by the timing model, never by
    the tracer.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str, track: str = "host", cat: str = "repro",
             **attrs) -> Span:
        """Return the shared no-op span handle."""
        return _NULL_SPAN  # type: ignore[return-value]

    def virtual_span(self, name, start, dur, track=COORDINATOR_TRACK,
                     cat="virtual", **attrs) -> None:
        """No-op."""

    def instant(self, name, track=COORDINATOR_TRACK, cat="virtual",
                virtual_ts=None, **attrs) -> None:
        """No-op."""

    def emit(self, record: SpanRecord) -> None:
        """No-op."""

    def add_sink(self, sink: Sink) -> None:
        """Reject sinks: a null tracer would silently drop records."""
        raise ValueError("cannot attach sinks to NULL_TRACER; "
                         "construct a Tracer instead")


#: Shared disabled tracer — the default for every engine and scheduler.
NULL_TRACER = NullTracer()
