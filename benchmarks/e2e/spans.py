"""In-memory span recorder for the e2e benchmark.

The benchmark measures every layer *from outside*: a span is opened in
the benchmark's own files around a call into a public function of
``src/repro``. Spans are kept in memory and written at exit (Chrome
``trace_event`` JSON, so the per-layer table opens in Perfetto next to
a ``repro profile`` trace).

A span is the list ``[name, start, end, parent, pass_id, op_id]`` with
``start``/``end`` on ``time.perf_counter`` and ``parent`` the index of
the enclosing span (``-1`` for an op's root). A layer's *self time* is
its span's duration minus the durations of its direct children, so the
selves of one op sum to the op's wall by construction.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List

NAME, START, END, PARENT, PASS, OP = range(6)


class Recorder:
    """Collects spans while ``enabled``; a no-op otherwise."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = False
        self.pass_id = ""
        self.op_id = ""
        self._open = -1

    def begin(self, name: str) -> int:
        """Open a span; returns its index (``-1`` when disabled)."""
        if not self.enabled:
            return -1
        index = len(self.spans)
        self.spans.append(
            [name, 0.0, 0.0, self._open, self.pass_id, self.op_id]
        )
        self._open = index
        self.spans[index][START] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        """Close the span opened as ``index``."""
        now = time.perf_counter()
        if index < 0:
            return
        span = self.spans[index]
        span[END] = now
        self._open = span[PARENT]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-measured interval (a timed subprocess)."""
        self.spans.append(
            [name, start, end, self._open, self.pass_id, self.op_id]
        )


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus direct children's durations."""
    selves = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            selves[span[PARENT]] -= span[END] - span[START]
    return selves


def layer_totals(spans: List[list], pass_id: str) -> Dict[str, dict]:
    """``name -> {dur, self, calls}`` summed over one pass's spans."""
    selves = self_times(spans)
    totals: Dict[str, dict] = {}
    for span, self_time in zip(spans, selves):
        if span[PASS] != pass_id:
            continue
        entry = totals.setdefault(
            span[NAME], {"dur": 0.0, "self": 0.0, "calls": 0}
        )
        entry["dur"] += span[END] - span[START]
        entry["self"] += self_time
        entry["calls"] += 1
    return totals


def chrome_events(workload: str, tid: int,
                  spans: Iterable[list]) -> List[dict]:
    """Chrome ``trace_event`` records for one workload's spans.

    Every event carries the span's own ``id`` and its ``parent`` id in
    ``args`` so self times can be recomputed from the file alone.
    """
    events = [{
        "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
        "args": {"name": workload},
    }]
    for index, span in enumerate(spans):
        events.append({
            "name": span[NAME], "ph": "X", "cat": "e2e",
            "pid": 1, "tid": tid,
            "ts": span[START] * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "args": {
                "id": index, "parent": span[PARENT],
                "workload": workload,
                "pass": span[PASS], "op": span[OP],
            },
        })
    return events


def write_chrome_trace(path, spans_by_workload: Dict[str, List[list]]) -> None:
    """Write every workload's spans as one Chrome trace file."""
    events = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": "benchmarks/e2e (host clock)"},
    }]
    for tid, (workload, spans) in enumerate(spans_by_workload.items(), 1):
        events.extend(chrome_events(workload, tid, spans))
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
