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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.tracer": (
        "SpanRecord", "Span", "Sink", "InMemorySink", "JsonlSink", "Tracer",
        "NullTracer", "NULL_TRACER",
    ),
    "repro.obs.metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "NullMetrics", "NULL_METRICS",
    ),
    "repro.obs.chrome": (
        "ChromeTraceSink", "chrome_trace_events", "write_chrome_trace",
    ),
    "repro.obs.export": ("iteration_spans", "result_to_spans", "emit_iteration"),
    "repro.obs.analysis": ("CriticalPathReport", "analyze"),
    "repro.obs.ledger": (
        "LEDGER_SCHEMA", "Ledger", "LedgerError", "explain_lines",
        "reconstruct_rmsre",
    ),
})
