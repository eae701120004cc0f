"""Live streaming: protocol shape, flush contract, live/post-hoc parity.

The pinned invariant: the spans a :class:`StreamingSink` puts on the
wire during a run are exactly the spans a post-hoc
:func:`result_to_spans` replay produces for the same run
(order-insensitive) — including chaos fault markers — so live
consumers and offline analytics can never disagree about what a run
did.
"""

import json
import pathlib
import threading

import pytest

import repro
from repro.chaos import ChaosController, ChaosScenario, FaultSpec
from repro.core import GumConfig
from repro.errors import ReproError
from repro.obs import (
    InMemorySink,
    MetricsRegistry,
    Sink,
    SpanRecord,
    StreamingSink,
    Tracer,
    read_stream_events,
    result_to_spans,
)
from repro.obs.live import STREAM_FORMAT, STREAM_VERSION, iter_stream_lines
from repro.runtime.trace import trace_records


def _span(name="superstep", iteration=0, **attrs):
    return SpanRecord(
        name=name, track="coordinator", cat="engine",
        virtual_start=0.001 * iteration, virtual_dur=0.001,
        attrs={"iteration": iteration, **attrs},
    )


# ----------------------------------------------------------------------
# Protocol shape
# ----------------------------------------------------------------------
def test_stream_header_and_end(tmp_path):
    path = tmp_path / "run.stream"
    sink = StreamingSink(path, meta={"engine": "gum", "graph": "TX"})
    sink.emit(_span(iteration=0))
    sink.close()
    events = read_stream_events(path)
    header = events[0]
    assert header["format"] == STREAM_FORMAT
    assert header["version"] == STREAM_VERSION
    assert header["engine"] == "gum"
    assert events[-1] == {"event": "end", "spans": 1}


def test_span_events_preserve_record_kind(tmp_path):
    """The envelope key is ``event``; the record's own ``kind`` field
    (span vs instant) must survive untouched."""
    path = tmp_path / "run.stream"
    sink = StreamingSink(path)
    sink.emit(_span())
    instant = SpanRecord(name="chaos.kill_worker", track="coordinator",
                         kind="instant", cat="chaos",
                         virtual_start=0.0, virtual_dur=0.0)
    sink.emit(instant)
    sink.close()
    spans = [e for e in read_stream_events(path) if e.get("event") == "span"]
    assert [s["kind"] for s in spans] == ["span", "instant"]


def test_periodic_and_final_snapshots_are_one_form(tmp_path):
    registry = MetricsRegistry()
    registry.histogram("engine.iteration_wall_seconds").observe(5e-4)
    path = tmp_path / "run.stream"
    sink = StreamingSink(path, metrics=registry, snapshot_every=2)
    for i in range(4):
        registry.counter("engine.iterations").inc()
        sink.emit(_span(iteration=i))
    sink.close()
    snapshots = [e for e in read_stream_events(path)
                 if e.get("event") == "metrics"]
    # two periodic (after supersteps 2 and 4) + one final
    assert [e["iteration"] for e in snapshots] == [1, 3, None]
    assert snapshots[0]["snapshot"]["engine.iterations"]["total"] == 2.0
    # a heartbeat ships the registry's one snapshot, as close does
    assert snapshots[1]["snapshot"] == snapshots[2]["snapshot"] \
        == registry.snapshot()


def test_instants_flush_immediately_spans_batch(tmp_path):
    """Chaos markers must hit the wire at once; ordinary span lines may
    wait for the heartbeat."""
    path = tmp_path / "run.stream"
    sink = StreamingSink(path, snapshot_every=10)
    sink.emit(_span(name="busy", iteration=0))
    assert list(iter_stream_lines(path)) == [
        {"format": STREAM_FORMAT, "version": STREAM_VERSION}
    ]  # header flushed, busy line still buffered
    sink.emit(SpanRecord(name="chaos.kill_worker", kind="instant",
                         cat="chaos", virtual_start=0.0, virtual_dur=0.0))
    on_wire = [e.get("name") for e in iter_stream_lines(path)
               if e.get("event") == "span"]
    assert on_wire == ["busy", "chaos.kill_worker"]
    sink.close()


def test_snapshot_every_zero_disables_periodic(tmp_path):
    registry = MetricsRegistry()
    path = tmp_path / "run.stream"
    sink = StreamingSink(path, metrics=registry, snapshot_every=0)
    for i in range(25):
        sink.emit(_span(iteration=i))
    sink.close()
    snapshots = [e for e in read_stream_events(path)
                 if e.get("event") == "metrics"]
    assert len(snapshots) == 1  # only the final full snapshot


# ----------------------------------------------------------------------
# The stream writes on the calling thread
# ----------------------------------------------------------------------
KILL_WORKER = (pathlib.Path(__file__).resolve().parents[2]
               / "benchmarks" / "scenarios" / "kill-worker.json")


class _After(Sink):
    """Forwards to ``inner``, then calls ``probe(record)`` — what the
    engine would see on the statement after ``emit``."""

    def __init__(self, inner, probe):
        self._inner, self._probe = inner, probe

    def emit(self, record):
        self._inner.emit(record)
        self._probe(record)

    def close(self):
        self._inner.close()


def test_chaos_marker_is_on_the_wire_when_emit_returns(
        tmp_path, skewed_graph, source):
    path = tmp_path / "run.stream"
    on_wire = []

    def read_back(record):
        if record.cat == "chaos":
            on_wire.append([e.get("name") for e in iter_stream_lines(path)])

    with Tracer(sinks=[_After(StreamingSink(path), read_back)]) as tracer:
        repro.run(
            skewed_graph, "bfs", num_gpus=4, source=source,
            gum_config=GumConfig(cost_model="oracle"), tracer=tracer,
            chaos=ChaosController(ChaosScenario.from_file(KILL_WORKER)),
        )
    assert len(on_wire) == 1
    assert on_wire[0][-1] == "chaos.kill_worker"


def test_streamed_run_starts_no_thread(tmp_path, skewed_graph, source):
    before = threading.active_count()
    during = set()
    sink = StreamingSink(tmp_path / "run.stream")
    probe = _After(sink, lambda record: during.add(threading.active_count()))
    with Tracer(sinks=[probe]) as tracer:
        repro.run(skewed_graph, "bfs", num_gpus=4, source=source,
                  gum_config=GumConfig(cost_model="oracle"), tracer=tracer)
        during.add(threading.active_count())
    assert during == {before}
    assert threading.active_count() == before


class _FailingTarget:
    """A writable whose ``fail_on``-th write raises."""

    def __init__(self, fail_on):
        self.writes, self._fail_on = 0, fail_on

    def write(self, text):
        self.writes += 1
        if self.writes == self._fail_on:
            raise OSError("disk full")

    def flush(self):
        pass


def test_write_error_surfaces_from_the_emit_that_wrote_it():
    # batch 1 is the header, 2 the first heartbeat, 3 the second
    sink = StreamingSink(_FailingTarget(fail_on=3), snapshot_every=2)
    for i in range(3):
        sink.emit(_span(iteration=i))
    with pytest.raises(OSError, match="disk full"):
        sink.emit(_span(iteration=3))
    sink.emit(_span(iteration=4))  # buffered: the target is not touched
    sink.close()  # the target works again: buffered span, then end


def test_write_error_on_close_still_closes_the_other_sinks(tmp_path):
    closed = []

    class Recording(InMemorySink):
        def close(self):
            closed.append(self)

    first, last = Recording(), Recording()
    failing = StreamingSink(_FailingTarget(fail_on=2))
    with pytest.raises(OSError, match="disk full"):
        with Tracer(sinks=[first, failing, last]) as tracer:
            tracer.emit(_span())
    assert closed == [first, last]


# ----------------------------------------------------------------------
# Targets and reader edge cases
# ----------------------------------------------------------------------
def test_fd_target(tmp_path):
    path = tmp_path / "fd.stream"
    with open(path, "w") as handle:
        sink = StreamingSink(f"fd://{handle.fileno()}")
        sink.emit(_span())
        sink.close()
    events = read_stream_events(path)
    assert [e.get("event") for e in events[1:]] == ["span", "end"]


def test_bad_fd_target_raises():
    with pytest.raises(ReproError, match="fd://"):
        StreamingSink("fd://notanumber")


def test_unconnectable_socket_target_raises(tmp_path):
    with pytest.raises(ReproError, match="socket"):
        StreamingSink(f"unix://{tmp_path}/no-such.sock")


def test_unwritable_path_raises(tmp_path):
    target = tmp_path / "dir-in-the-way"
    target.mkdir()
    with pytest.raises(ReproError, match="cannot open stream file"):
        StreamingSink(target)


def test_reader_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "run.stream"
    sink = StreamingSink(path)
    sink.emit(_span())
    sink.close()
    text = path.read_text()
    path.write_text(text + '{"event":"span","name":"half')  # no newline
    events = list(iter_stream_lines(path))
    assert [e.get("event") for e in events[1:]] == ["span", "end"]


def test_reader_rejects_malformed_complete_line(tmp_path):
    path = tmp_path / "run.stream"
    path.write_text('{"format":"repro-live","version":1}\nnot json\n')
    with pytest.raises(ReproError, match="malformed stream line"):
        list(iter_stream_lines(path))


def test_reader_rejects_wrong_format(tmp_path):
    path = tmp_path / "run.stream"
    path.write_text('{"format":"something-else"}\n')
    with pytest.raises(ReproError, match="not a repro-live stream"):
        read_stream_events(path)


def test_reader_rejects_empty_stream(tmp_path):
    path = tmp_path / "run.stream"
    path.write_text("")
    with pytest.raises(ReproError, match="empty stream"):
        read_stream_events(path)


# ----------------------------------------------------------------------
# Live vs post-hoc parity (the tentpole invariant)
# ----------------------------------------------------------------------
def _virtual_span_set(records):
    """Order-insensitive view of the virtual-clock spans."""
    return sorted(
        (json.dumps(r.as_dict(), sort_keys=True) for r in records
         if r.virtual_start is not None),
    )


def _streamed_span_set(path):
    spans = []
    for event in read_stream_events(path):
        if event.get("event") != "span":
            continue
        event = {k: v for k, v in event.items() if k != "event"}
        if "virtual_start" in event:
            spans.append(json.dumps(event, sort_keys=True))
    return sorted(spans)


def _traced_run(tmp_path, skewed_graph, source, chaos=None):
    metrics = MetricsRegistry()
    memory = InMemorySink()
    path = tmp_path / "run.stream"
    stream = StreamingSink(path, metrics=metrics)
    tracer = Tracer(sinks=[memory, stream])
    result = repro.run(
        skewed_graph, "bfs", num_gpus=4, source=source,
        gum_config=GumConfig(cost_model="oracle"),
        tracer=tracer, metrics=metrics, chaos=chaos,
    )
    memory.close()
    stream.close()
    return result, memory, path


def test_live_stream_matches_post_hoc_replay(tmp_path, skewed_graph,
                                             source):
    result, memory, path = _traced_run(tmp_path, skewed_graph, source)
    live = _virtual_span_set(memory.records)
    streamed = _streamed_span_set(path)
    post_hoc = _virtual_span_set(result_to_spans(result))
    assert streamed == live
    assert post_hoc == live
    assert len(live) > 0


def test_live_stream_matches_post_hoc_replay_with_chaos(
        tmp_path, skewed_graph, source):
    chaos = ChaosController(ChaosScenario(
        faults=(FaultSpec("kill_worker", 1, {"worker": 2}),),
        seed=0,
    ))
    result, memory, path = _traced_run(tmp_path, skewed_graph, source,
                                       chaos=chaos)
    live = _virtual_span_set(memory.records)
    streamed = _streamed_span_set(path)
    post_hoc = _virtual_span_set(result_to_spans(result))
    assert streamed == live
    assert post_hoc == live
    # the fault marker is on the wire, live and post-hoc alike
    assert any('"chaos.kill_worker"' in span for span in streamed)
    assert any('"chaos.kill_worker"' in span for span in post_hoc)


def test_streaming_leaves_virtual_clock_untouched(tmp_path, skewed_graph,
                                                  source):
    silent = repro.run(skewed_graph, "bfs", num_gpus=4, source=source,
                       gum_config=GumConfig(cost_model="oracle"))
    streamed, _, _ = _traced_run(tmp_path, skewed_graph, source)
    assert streamed.total_ms == silent.total_ms
    assert trace_records(streamed) == trace_records(silent)
