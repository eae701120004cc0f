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
  a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` taken on an
  iteration cadence (``snapshot_every``) and once more on close;
* end — ``{"event": "end", "spans": N}`` written on close, so tailing
  consumers know the run finished rather than stalled.

Targets: a filesystem path, an open file object, ``fd://N`` (inherit a
file descriptor — how a supervising process tails a child), or
``unix://PATH`` (connect to a Unix domain socket). Encoding and the
target write happen on the calling thread, inside the engine's
``obs_seconds`` stopwatch, so the stream's whole cost is in the number
the observability budget gates and a slow consumer pushes back on the
run at the heartbeat. Instants and metrics events are written (and
flushed) before ``emit`` returns — a chaos fault marker is on the wire
even if the engine dies on the next statement — while ordinary span
lines batch until the ``snapshot_every`` heartbeat (and close), so a
tailing consumer lags a live run by at most one heartbeat.

The spans on the wire are exactly the spans a post-hoc
:func:`~repro.obs.export.result_to_spans` replay produces for the same
run (order-insensitive) — a pinned invariant, tested, so live
consumers and offline analytics can never disagree about what a run
did.
"""

from __future__ import annotations

import json
import socket
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.documents import load_json_lines
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
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
        Emit a metrics snapshot every N ``superstep`` spans
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
        # dict events (header, metrics, end) and raw SpanRecords, in
        # wire order, until the next flush turns them into lines
        self._pending: List[object] = []
        header = {"format": STREAM_FORMAT, "version": STREAM_VERSION}
        header.update(meta or {})
        self._pending.append(header)
        self._flush()

    def _flush(self) -> None:
        """Encode the pending batch and write it to the target.

        A batch whose write raises is dropped, not retried: the error
        belongs to the ``emit`` / ``close`` that hit it.
        """
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        encode = self._encode
        lines = []
        for item in batch:
            if isinstance(item, SpanRecord):
                event = item.as_dict()
                event["event"] = "span"
                item = event
            lines.append(encode(item))
            lines.append("\n")
        self._handle.write("".join(lines))
        self._handle.flush()

    def emit(self, record: SpanRecord) -> None:
        """Stream one completed record (and maybe a metrics snapshot).

        Instants are written at once, not held for the heartbeat;
        ordinary span lines batch until the heartbeat cadence.
        """
        self._pending.append(record)
        self._spans += 1
        if record.kind == "instant":
            self._flush()
        if record.name == "superstep":
            self._supersteps += 1
            every = self._snapshot_every or 1
            if self._supersteps % every == 0:
                if self._metrics is not None and self._snapshot_every:
                    self.snapshot(iteration=record.attrs.get("iteration"))
                else:  # no registry: still ship on the cadence
                    self._flush()

    def snapshot(self, iteration: Optional[int] = None) -> None:
        """Write a metrics snapshot event now."""
        if self._metrics is None or self._closed:
            return
        self._pending.append({
            "event": "metrics",
            "iteration": iteration,
            "snapshot": self._metrics.snapshot(),
        })
        self._flush()

    def close(self) -> None:
        """Write a final snapshot + end marker, release the target."""
        if self._closed:
            return
        try:
            self.snapshot()
            self._pending.append({"event": "end", "spans": self._spans})
            self._flush()
        finally:
            self._closed = True
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
