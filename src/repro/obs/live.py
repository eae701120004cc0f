"""Live telemetry streaming: span events out of a *running* engine.

Everything in :mod:`repro.obs` up to this module is post-hoc — spans
and metrics become inspectable only after ``run()`` returns. A
:class:`StreamingSink` turns the same records into a line-oriented
event stream *while the BSP engine iterates*, so dashboards
(``repro top``), SLO monitors, and the future serving layer can watch
a run instead of autopsying it.

Stream format (``repro-live/1``) — one JSON object per line:

* header — ``{"format": "repro-live", "version": 1, ...meta}``;
* span — ``{"event": "span", ...SpanRecord.as_dict()}``, emitted the
  moment the record completes (supersteps, per-GPU busy/stall, chaos
  fault markers, solver spans; the record's own ``kind`` field still
  distinguishes spans from instants);
* metrics — ``{"event": "metrics", "iteration": N, "snapshot": {...}}``,
  a full :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` taken on
  an iteration cadence (``snapshot_every``);
* end — ``{"event": "end", "spans": N}`` written on close, so tailing
  consumers know the run finished rather than stalled.

Targets: a filesystem path, an open file object, ``fd://N`` (inherit a
file descriptor — how a supervising process tails a child), or
``unix://PATH`` (connect to a Unix domain socket). JSON encoding and
target writes run on a dedicated writer thread so the engine's emit
path never blocks on serialization (the dominant cost at the <3%
observability budget the ``obs.*`` bench family enforces). Instants
and metrics events hand off to the writer immediately — chaos fault
markers additionally block until they are durable on the wire —
while ordinary span lines batch until the ``snapshot_every``
heartbeat (and close), so a tailing consumer lags a live run by at
most one heartbeat.

Periodic metrics events are **light** snapshots: timeseries
instruments are summarized to ``count``/``last`` instead of shipping
their whole history every cadence (which would make streaming cost
quadratic in run length). The final snapshot written on :meth:`close`
is complete.

The spans on the wire are exactly the spans a post-hoc
:func:`~repro.obs.export.result_to_spans` replay produces for the same
run (order-insensitive) — a pinned invariant, tested, so live
consumers and offline analytics can never disagree about what a run
did.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.documents import load_json_lines
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, capture_light, render_light
from repro.obs.tracer import Sink, SpanRecord

__all__ = [
    "STREAM_FORMAT",
    "STREAM_VERSION",
    "StreamingSink",
    "open_stream_target",
    "read_stream_events",
    "iter_stream_lines",
]

STREAM_FORMAT = "repro-live"
STREAM_VERSION = 1

#: Default superstep cadence for full metrics snapshots.
DEFAULT_SNAPSHOT_EVERY = 10


class _DeferredSnapshot:
    """A heartbeat's captured registry state, formatted by the writer."""

    __slots__ = ("iteration", "captured")

    def __init__(self, iteration, captured) -> None:
        self.iteration = iteration
        self.captured = captured


class _SocketWriter:
    """Minimal file-like adapter over a connected Unix socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.closed = False

    def write(self, text: str) -> int:
        self._sock.sendall(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:  # sendall already pushed the bytes
        pass

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._sock.close()


def open_stream_target(target: Union[str, Path, object]):
    """Open a stream destination: ``(writable, owns_handle)``.

    Accepts a path (truncate/create), ``fd://N`` (duplicate an
    inherited descriptor), ``unix://PATH`` (connect a Unix socket), or
    any object with a ``write`` method (used as-is, not closed).
    """
    if hasattr(target, "write"):
        return target, False
    text = str(target)
    if text.startswith("fd://"):
        try:
            fd = int(text[5:])
        except ValueError:
            raise ReproError(
                f"bad stream target {text!r}: fd:// needs an integer "
                "file descriptor (e.g. fd://3)"
            ) from None
        try:
            return open(fd, "w", closefd=False), True
        except OSError as exc:
            raise ReproError(
                f"cannot open stream fd {fd}: {exc}"
            ) from exc
    if text.startswith("unix://"):
        path = text[len("unix://"):]
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
        except OSError as exc:
            sock.close()
            raise ReproError(
                f"cannot connect stream socket {path!r}: {exc}"
            ) from exc
        return _SocketWriter(sock), True
    path = Path(text)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w"), True
    except OSError as exc:
        raise ReproError(
            f"cannot open stream file {path}: {exc}"
        ) from exc


class StreamingSink(Sink):
    """Emits span records incrementally as ``repro-live/1`` JSON lines.

    Parameters
    ----------
    target:
        Path, ``fd://N``, ``unix://PATH``, or a writable file object.
    meta:
        Run annotations merged into the header line.
    metrics:
        Registry to snapshot on a superstep cadence (optional).
    snapshot_every:
        Emit a full metrics snapshot every N ``superstep`` spans
        (0 disables periodic snapshots; one final snapshot is still
        written on :meth:`close`).
    """

    def __init__(
        self,
        target: Union[str, Path, object],
        meta: Optional[Dict[str, object]] = None,
        metrics: Optional[MetricsRegistry] = None,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ) -> None:
        self._handle, self._owns_handle = open_stream_target(target)
        self._metrics = metrics
        self._snapshot_every = max(0, int(snapshot_every))
        self._supersteps = 0
        self._spans = 0
        self._closed = False
        # one reused encoder: json.dumps(default=...) builds a fresh
        # JSONEncoder per call, which dominates small-event cost
        self._encode = json.JSONEncoder(
            separators=(",", ":"), default=_coerce
        ).encode
        # pending holds dict events (header, metrics, end) and raw
        # SpanRecords; the writer thread turns records into span lines
        self._pending: List[object] = []
        # serialization and target writes run on a dedicated writer
        # thread: the engine's emit path only appends dicts and hands
        # off batches, so JSON float formatting never blocks a
        # superstep (the dominant cost at the <3% obs budget's scale)
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._writer_error: Optional[BaseException] = None
        self._writer = threading.Thread(
            target=self._drain, name="repro-stream-writer", daemon=True
        )
        self._writer.start()
        header = {"format": STREAM_FORMAT, "version": STREAM_VERSION}
        header.update(meta or {})
        self._write(header)

    def _drain(self) -> None:
        """Writer-thread loop: encode and ship queued batches in order."""
        while True:
            kind, payload = self._queue.get()
            if kind == "stop":
                return
            if kind == "barrier":
                payload.set()
                continue
            try:
                encode = self._encode
                lines = []
                for item in payload:
                    if isinstance(item, SpanRecord):
                        event = item.as_dict()
                        event["event"] = "span"
                        item = event
                    elif isinstance(item, _DeferredSnapshot):
                        item = {
                            "event": "metrics",
                            "iteration": item.iteration,
                            "snapshot": render_light(item.captured),
                        }
                    lines.append(encode(item))
                    lines.append("\n")
                self._handle.write("".join(lines))
                self._handle.flush()
            except BaseException as exc:  # surfaced at the next barrier
                self._writer_error = exc

    def _write(self, payload: Dict[str, object], flush: bool = True) -> None:
        # batches hand off to the writer thread; ``flush`` additionally
        # waits until the batch is on the wire (instants, header, close)
        self._pending.append(payload)
        if flush:
            self._flush_pending(wait=True)

    def _flush_pending(self, wait: bool = False) -> None:
        if self._pending:
            self._queue.put(("batch", self._pending))
            self._pending = []
        if wait:
            barrier = threading.Event()
            self._queue.put(("barrier", barrier))
            barrier.wait()
            if self._writer_error is not None:
                error, self._writer_error = self._writer_error, None
                raise error

    def emit(self, record: SpanRecord) -> None:
        """Stream one completed record (and maybe a metrics snapshot).

        The record itself is handed to the writer thread, which builds
        the span event line — records are complete (never mutated
        again) by the time a tracer emits them, so deferring the dict
        view is safe and keeps the engine-side cost to a list append.
        """
        # instants ship to the writer at once (not held for the
        # heartbeat); chaos fault markers additionally *block* until
        # they are on the wire — a fault must be durable even if the
        # engine dies on the very next statement. Ordinary span lines
        # batch until the heartbeat cadence.
        self._pending.append(record)
        if record.kind == "instant":
            self._flush_pending(wait=record.cat == "chaos")
        self._spans += 1
        if record.name == "superstep":
            self._supersteps += 1
            every = self._snapshot_every or 1
            if self._supersteps % every == 0:
                if self._metrics is not None and self._snapshot_every:
                    self.snapshot(iteration=record.attrs.get("iteration"),
                                  light=True)
                else:  # no registry: still ship on the cadence
                    self._flush_pending()

    def snapshot(
        self, iteration: Optional[int] = None, light: bool = False
    ) -> None:
        """Write a metrics snapshot event now.

        ``light`` summarizes timeseries instruments to their
        ``count``/``last`` fields — the periodic cadence must not ship
        a run's whole per-iteration history on every beat. The registry
        state is captured synchronously (at this instant); encoding and
        the write happen on the writer thread.
        """
        if self._metrics is None or self._closed:
            return
        if light:
            # capture the state now, format it on the writer thread
            self._pending.append(_DeferredSnapshot(
                iteration, capture_light(self._metrics)
            ))
        else:
            self._pending.append({
                "event": "metrics",
                "iteration": iteration,
                "snapshot": self._metrics.snapshot(light=False),
            })
        self._flush_pending()

    def close(self) -> None:
        """Write a final snapshot + end marker, release the target."""
        if self._closed:
            return
        self.snapshot()
        self._write({"event": "end", "spans": self._spans})
        self._closed = True
        self._queue.put(("stop", None))
        self._writer.join()
        if self._owns_handle:
            self._handle.close()


def _coerce(value):
    """JSON fallback for numpy scalars/arrays in span attributes."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(
        f"not JSON serializable: {type(value).__name__}"
    )


def iter_stream_lines(path: Union[str, Path]) -> Iterator[Dict]:
    """Parse a recorded live stream file, yielding event dicts.

    Tolerates a truncated final line (the producer may still be
    writing); raises :class:`ReproError` on anything else malformed.
    """
    return iter(load_json_lines(
        path, ReproError, "stream", drop_partial_tail=True
    ))


def read_stream_events(path: Union[str, Path]) -> List[Dict]:
    """All complete events of a recorded live stream, header included.

    Validates the header line; use :func:`iter_stream_lines` when the
    producer may still be running.
    """
    events = list(iter_stream_lines(path))
    if not events:
        raise ReproError(f"{path}: empty stream (no header line)")
    header = events[0]
    if header.get("format") != STREAM_FORMAT:
        raise ReproError(
            f"{path}: not a {STREAM_FORMAT} stream "
            f"(header format {header.get('format')!r})"
        )
    return events
