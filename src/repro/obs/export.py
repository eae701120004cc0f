"""Bridging engine records and trace spans — one source of truth.

:func:`iteration_spans` defines, in exactly one place, how a priced
:class:`~repro.runtime.metrics.IterationRecord` becomes timeline spans:
a ``superstep`` span on the coordinator track plus ``busy``/``stall``
spans on each active GPU's track. Engines call it live through
:func:`emit_iteration`; :func:`result_to_spans` replays a finished
:class:`~repro.runtime.metrics.RunResult` through the same function, so
offline reports (``runtime/trace.py``) and interactive traces can never
drift apart.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import COORDINATOR_TRACK, SpanRecord, Tracer
from repro.runtime.metrics import IterationRecord, RunResult

__all__ = [
    "iteration_spans",
    "result_to_spans",
    "emit_iteration",
]


def gpu_track(worker: int) -> str:
    """Track (Chrome process) name of one GPU worker."""
    return f"gpu{worker}"


def iteration_spans(
    record: IterationRecord,
    virtual_start: float,
    engine: str = "",
) -> List[SpanRecord]:
    """Timeline spans for one priced iteration.

    One ``superstep`` span covers the iteration's wall time on the
    coordinator track; each active worker gets a ``busy`` span and — if
    it waited at the barrier — a ``stall`` span directly after it.
    """
    attrs = {
        "iteration": record.iteration,
        "engine": engine,
        "frontier_size": record.frontier_size,
        "frontier_edges": record.frontier_edges,
        "active_workers": list(record.active_workers),
        "fsteal": record.fsteal_applied,
        "group_size": record.osteal_group_size,
        "stolen_edges": record.stolen_edges,
        "breakdown_ms": record.breakdown.scaled_ms(),
    }
    spans = [SpanRecord(
        name="superstep",
        track=COORDINATOR_TRACK,
        cat="superstep",
        virtual_start=virtual_start,
        virtual_dur=record.wall_seconds,
        attrs=attrs,
    )]
    for worker in record.active_workers:
        busy = float(record.busy_seconds[worker])
        stall = float(record.stall_seconds[worker])
        if busy > 0.0:
            spans.append(SpanRecord(
                name="busy",
                track=gpu_track(worker),
                cat="worker",
                virtual_start=virtual_start,
                virtual_dur=busy,
                attrs={"iteration": record.iteration, "gpu": worker},
            ))
        if stall > 0.0:
            spans.append(SpanRecord(
                name="stall",
                track=gpu_track(worker),
                cat="worker",
                virtual_start=virtual_start + busy,
                virtual_dur=stall,
                attrs={"iteration": record.iteration, "gpu": worker},
            ))
    return spans


def _chaos_instant(event: dict, clock: float) -> SpanRecord:
    """Fault marker identical to the live ``chaos.{kind}`` instant."""
    return SpanRecord(
        name=f"chaos.{event.get('kind')}",
        track=COORDINATOR_TRACK,
        kind="instant",
        cat="chaos",
        virtual_start=clock,
        virtual_dur=0.0,
        attrs=dict(event),
    )


def result_to_spans(result: RunResult) -> List[SpanRecord]:
    """Replay a finished run as the spans a live tracer would emit.

    Includes the ``osteal.group_change`` instants between iterations
    whose group size differs (the Figure 9 switching events) and, for
    chaos runs, the ``chaos.{kind}`` fault markers the engine emitted
    live — each placed at the virtual clock *before* its faulted
    iteration, exactly where ``BSPEngine._apply_faults`` put it.
    """
    spans: List[SpanRecord] = []
    clock = 0.0
    prev_group: Optional[int] = None
    chaos_events: List[dict] = list(
        (result.chaos or {}).get("events") or []
    )
    for record in result.iterations:
        remaining = []
        for event in chaos_events:
            if event.get("iteration") == record.iteration:
                spans.append(_chaos_instant(event, clock))
            else:
                remaining.append(event)
        chaos_events = remaining
        spans.extend(iteration_spans(record, clock, engine=result.engine))
        group = record.osteal_group_size
        if group is not None and prev_group is not None \
                and group != prev_group:
            spans.append(SpanRecord(
                name="osteal.group_change",
                track=COORDINATOR_TRACK,
                kind="instant",
                cat="osteal",
                virtual_start=clock,
                virtual_dur=0.0,
                attrs={"from": prev_group, "to": group,
                       "iteration": record.iteration},
            ))
        if group is not None:
            prev_group = group
        clock += record.wall_seconds
    # faults scheduled past the last executed iteration never fired
    # live, so they are (correctly) absent here too
    return spans


class _IterationInstruments:
    """Resolved-once instrument handles for :func:`emit_iteration`.

    Name lookups and label-key construction are cheap individually but
    the emitter performs ~10 of them per superstep, which adds up at
    the obs budget's scale. One of these is cached per registry; the
    conditional instruments (steal/fsteal/group) stay lazily created so
    a run that never steals registers exactly the instruments it always
    did.
    """

    __slots__ = (
        "registry", "iterations", "frontier_edges", "buckets",
        "bucket_keys", "wall_hist", "steal_total", "fsteal_iters",
        "group_gauge",
    )

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.registry = metrics
        self.iterations = metrics.counter("engine.iterations")
        self.frontier_edges = metrics.counter("engine.frontier_edges")
        self.buckets = metrics.counter("engine.bucket_seconds")
        # (label key, TimeBreakdown attribute) pairs — the as_dict()
        # buckets minus the derived "total", with the label tuples
        # prebuilt so the per-superstep loop is pure dict updates
        self.bucket_keys = tuple(
            ((("bucket", name),), name)
            for name in ("compute", "communication", "serialization",
                         "sync", "overhead")
        )
        self.wall_hist = metrics.histogram("engine.iteration_wall_seconds")
        self.steal_total = None
        self.fsteal_iters = None
        self.group_gauge = None


def _iteration_instruments(metrics: MetricsRegistry) -> _IterationInstruments:
    handles = getattr(metrics, "_iteration_instruments", None)
    if handles is None or handles.registry is not metrics:
        handles = _IterationInstruments(metrics)
        metrics._iteration_instruments = handles
    return handles


def emit_iteration(
    tracer: Tracer,
    metrics: MetricsRegistry,
    record: IterationRecord,
    virtual_start: float,
    prev_group: Optional[int],
    engine: str = "",
) -> float:
    """Publish one iteration to a live tracer + metrics registry.

    Returns the virtual clock *after* the iteration. Engines call this
    once per superstep; with both observers disabled it is a pair of
    attribute reads.
    """
    if tracer.enabled:
        for span in iteration_spans(record, virtual_start, engine=engine):
            tracer.emit(span)
        group = record.osteal_group_size
        if group is not None and prev_group is not None \
                and group != prev_group:
            tracer.instant(
                "osteal.group_change",
                virtual_ts=virtual_start,
                cat="osteal",
                **{"from": prev_group, "to": group,
                   "iteration": record.iteration},
            )
    if metrics.enabled:
        handles = _iteration_instruments(metrics)
        handles.iterations.inc()
        handles.frontier_edges.inc(record.frontier_edges)
        if record.stolen_edges:
            if handles.steal_total is None:
                handles.steal_total = metrics.counter("steal.edges_total")
            handles.steal_total.inc(record.stolen_edges)
        if record.fsteal_applied:
            if handles.fsteal_iters is None:
                handles.fsteal_iters = metrics.counter("fsteal.iterations")
            handles.fsteal_iters.inc()
        if record.osteal_group_size is not None:
            if handles.group_gauge is None:
                handles.group_gauge = metrics.gauge("osteal.group_size")
            handles.group_gauge.set(record.osteal_group_size)
        buckets = handles.buckets
        breakdown = record.breakdown
        for key, bucket in handles.bucket_keys:
            buckets.inc_key(key, getattr(breakdown, bucket))
        handles.wall_hist.observe(record.wall_seconds)
    return virtual_start + record.wall_seconds
