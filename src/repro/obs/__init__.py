"""Observability: structured spans, metrics, and trace export.

One shared way to answer "where did the time go and why" across every
engine, scheduler, and baseline:

* :class:`Tracer` — nestable spans on the virtual and host clocks with
  pluggable sinks (:class:`InMemorySink`, :class:`JsonlSink`,
  :class:`ChromeTraceSink` for ``chrome://tracing`` / Perfetto);
* :class:`MetricsRegistry` — counters, gauges, histograms engines
  publish (stolen edges per pair, MILP solve time, hub-cache hit
  rates, online cost-model RMSRE, ...);
* :func:`result_to_spans` — the offline bridge from a finished
  :class:`~repro.runtime.metrics.RunResult` to the same span stream a
  live tracer emits;
* :class:`Ledger` — the per-decision explainability record the GUM
  arbitrator keeps (prediction audit, drift detection, error
  attribution; ``repro explain`` renders it).

Everything defaults to :data:`NULL_TRACER` / :data:`NULL_METRICS`,
which discard all records, so uninstrumented runs pay nothing.
"""

from repro.obs.tracer import (
    InMemorySink,
    JsonlSink,
    NULL_TRACER,
    NullTracer,
    Sink,
    Span,
    SpanRecord,
    Tracer,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    Timeseries,
)
from repro.obs.chrome import (
    ChromeTraceSink,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.export import (
    emit_iteration,
    iteration_spans,
    result_to_spans,
)
from repro.obs.analysis import (
    CriticalPathReport,
    ReplayReport,
    WhatIf,
    analyze,
    replay,
)
from repro.obs.live import (
    StreamingSink,
    read_stream_events,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    Ledger,
    LedgerError,
    explain_lines,
    reconstruct_rmsre,
)
from repro.obs.prom import prom_text, write_prom
from repro.obs.slo import (
    SloPolicy,
    SloReport,
    evaluate,
    load_policy,
    slo_indicators,
)

__all__ = [
    "SpanRecord",
    "Span",
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "Timeseries",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "ChromeTraceSink",
    "chrome_trace_events",
    "write_chrome_trace",
    "iteration_spans",
    "result_to_spans",
    "emit_iteration",
    "CriticalPathReport",
    "ReplayReport",
    "WhatIf",
    "analyze",
    "replay",
    "StreamingSink",
    "read_stream_events",
    "LEDGER_SCHEMA",
    "Ledger",
    "LedgerError",
    "explain_lines",
    "reconstruct_rmsre",
    "prom_text",
    "write_prom",
    "SloPolicy",
    "SloReport",
    "evaluate",
    "load_policy",
    "slo_indicators",
]
