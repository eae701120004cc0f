"""``repro top`` dashboard model, rendering, and replay drivers."""

import pytest

from repro.obs.top import (
    TopModel,
    follow_stream,
    play_back,
    render_frame,
    trace_record_events,
)

HEADER = {"format": "repro-live", "version": 1,
          "engine": "gum", "algorithm": "bfs", "graph": "TX",
          "num_gpus": 2}


def superstep(iteration, frontier=100, wall=0.001, start=0.0, **attrs):
    return {"event": "span", "name": "superstep",
            "track": "coordinator", "cat": "superstep",
            "virtual_start": start, "virtual_dur": wall,
            "attrs": {"iteration": iteration, "frontier_size": frontier,
                      "frontier_edges": frontier * 8, **attrs}}


def busy(gpu, dur=0.0008, start=0.0):
    return {"event": "span", "name": "busy", "track": f"gpu{gpu}",
            "cat": "worker", "virtual_start": start, "virtual_dur": dur,
            "attrs": {"gpu": gpu, "iteration": 0}}


# ----------------------------------------------------------------------
# model folding
# ----------------------------------------------------------------------
def test_header_seeds_meta_and_gpu_rows():
    model = TopModel()
    assert model.feed(HEADER) is True
    assert model.meta["engine"] == "gum"
    assert sorted(model.gpus) == [0, 1]


def test_superstep_updates_scalars_and_redraws():
    model = TopModel()
    model.feed(HEADER)
    changed = model.feed(superstep(0, frontier=42, wall=0.002,
                                   group_size=2, fsteal=True,
                                   stolen_edges=16))
    assert changed is True
    assert model.iteration == 0
    assert model.frontier_size == 42
    assert model.group_size == 2
    assert model.fsteal_iterations == 1
    assert model.stolen_edges == 16
    assert model.virtual_seconds == pytest.approx(0.002)
    assert model.frontier_history == [42]


def test_busy_stall_accumulate_without_redraw():
    model = TopModel()
    model.feed(HEADER)
    assert model.feed(busy(0)) is False
    stall = dict(busy(1))
    stall["name"] = "stall"
    assert model.feed(stall) is False
    assert model.gpus[0].busy == pytest.approx(0.0008)
    assert model.gpus[1].stall == pytest.approx(0.0008)
    assert model.gpus[0].utilization == 1.0
    assert model.gpus[1].utilization == 0.0


def test_gpu_resolved_from_track_when_attr_missing():
    model = TopModel()
    event = busy(3)
    event["attrs"] = {}
    model.feed(event)
    assert model.gpus[3].busy == pytest.approx(0.0008)


def test_chaos_span_counts_by_kind():
    model = TopModel()
    event = {"event": "span", "name": "chaos.kill_worker",
             "kind": "instant", "cat": "chaos",
             "virtual_start": 0.0, "virtual_dur": 0.0,
             "attrs": {"kind": "kill_worker", "iteration": 3}}
    assert model.feed(event) is True
    assert model.feed(event) is True
    assert model.chaos_counts == {"kill_worker": 2}


def test_metrics_event_stored_without_redraw():
    model = TopModel()
    event = {"event": "metrics", "iteration": 9,
             "snapshot": {"engine.iterations": {"type": "counter",
                                                "total": 9.0}}}
    assert model.feed(event) is False
    assert model.last_snapshot["engine.iterations"]["total"] == 9.0


def test_end_event_marks_done():
    model = TopModel()
    assert model.feed({"event": "end", "spans": 10}) is True
    assert model.ended


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def test_render_frame_shows_the_story():
    model = TopModel()
    model.feed(HEADER)
    model.feed(busy(0))
    model.feed(superstep(5, frontier=42, group_size=2, stolen_edges=7))
    frame = render_frame(model)
    assert "gum/bfs/TX" in frame
    assert "[live]" in frame
    assert "iter 5" in frame
    assert "frontier 42" in frame
    assert "gpu0" in frame and "gpu1" in frame
    assert "stolen edges 7" in frame


def test_render_frame_done_status_and_chaos_line():
    model = TopModel()
    model.feed(HEADER)
    model.feed({"event": "span", "name": "chaos.slow_gpu", "cat": "chaos",
                "kind": "instant", "virtual_start": 0.0,
                "virtual_dur": 0.0})
    model.feed({"event": "end", "spans": 1})
    frame = render_frame(model)
    assert "[done]" in frame
    assert "chaos" in frame and "slow_gpu:1" in frame


def test_render_empty_model():
    frame = render_frame(TopModel())
    assert "repro top" in frame
    assert "iter -" in frame


# ----------------------------------------------------------------------
# replay from archived trace records
# ----------------------------------------------------------------------
TRACE_HEADER = {"engine": "gum", "algorithm": "bfs", "graph": "TX",
                "num_gpus": 2}
TRACE_RECORDS = [
    {"iteration": 0, "frontier_size": 10, "frontier_edges": 80,
     "active_workers": [0, 1], "busy_ms": [0.8, 0.7],
     "stall_ms": [0.0, 0.1], "wall_ms": 0.8, "fsteal": False,
     "group_size": 2, "stolen_edges": 0},
    {"iteration": 1, "frontier_size": 30, "frontier_edges": 240,
     "active_workers": [0, 1], "busy_ms": [0.9, 0.9],
     "stall_ms": [0.0, 0.0], "wall_ms": 0.9, "fsteal": True,
     "group_size": 2, "stolen_edges": 12},
]


def test_trace_record_events_shape():
    events = trace_record_events(TRACE_HEADER, TRACE_RECORDS)
    assert events[0]["format"] == "repro-live"
    assert events[-1]["event"] == "end"
    supersteps = [e for e in events[1:-1] if e["name"] == "superstep"]
    assert [s["attrs"]["iteration"] for s in supersteps] == [0, 1]
    # virtual clock accumulates across iterations
    assert supersteps[1]["virtual_start"] == pytest.approx(0.8e-3)


def test_replay_matches_fed_model():
    """Replay and a hand-fed model agree — the shared-model invariant."""
    frames = []
    model = play_back(TRACE_HEADER, TRACE_RECORDS, frames.append,
                      ansi=False)
    assert model.ended
    assert model.supersteps == 2
    assert model.fsteal_iterations == 1
    assert model.stolen_edges == 12
    assert model.gpus[0].busy == pytest.approx(1.7e-3)
    assert model.virtual_seconds == pytest.approx(1.7e-3)
    # header frame + one per superstep + the final frame
    assert len(frames) == 4
    assert "[done]" in frames[-1]


def test_replay_frames_cap():
    frames = []
    play_back(TRACE_HEADER, TRACE_RECORDS, frames.append, frames=1,
              ansi=False)
    assert len(frames) == 2  # capped redraw + guaranteed final frame


def test_replay_ansi_clears_screen():
    frames = []
    play_back(TRACE_HEADER, TRACE_RECORDS, frames.append, ansi=True)
    assert frames[0].startswith("\x1b[2J\x1b[H")


def test_play_back_agrees_with_the_live_stream(tmp_path):
    """The flight recorder and the live view are one model: the
    reference run's archived trace, played back, and the live stream of
    the same workload fold to the same numbers. (The stream's metrics
    panels are not in an archived trace, so compare the model, not the
    frame; the trace rounds per-GPU times to the nanosecond.)"""
    from pathlib import Path

    from repro.bench import Cell, run_cell
    from repro.core import GumConfig
    from repro.obs import MetricsRegistry, StreamingSink, Tracer
    from repro.runtime.trace import load_trace

    reference = (Path(__file__).resolve().parents[2]
                 / "benchmarks" / "reference" / "tx-bfs-4gpu")
    played = play_back(*load_trace(reference / "trace.jsonl"),
                       lambda frame: None, ansi=False)

    stream = tmp_path / "live.jsonl"
    metrics = MetricsRegistry()
    tracer = Tracer(sinks=[StreamingSink(stream, metrics=metrics)])
    run_cell(Cell("gum", "bfs", "TX", 4, "random"),
             gum_config=GumConfig(cost_model="oracle", amortize=False),
             tracer=tracer, metrics=metrics)
    tracer.close()
    live = follow_stream(stream, lambda frame: None, ansi=False)

    assert played.ended and live.ended
    assert played.supersteps == live.supersteps == 137
    assert played.stolen_edges == live.stolen_edges
    assert played.fsteal_iterations == live.fsteal_iterations
    assert played.virtual_seconds == pytest.approx(
        live.virtual_seconds, rel=1e-9
    )
    assert sorted(played.gpus) == sorted(live.gpus)
    for gpu, state in live.gpus.items():
        assert played.gpus[gpu].busy == pytest.approx(state.busy, abs=1e-7)
        assert played.gpus[gpu].stall == pytest.approx(state.stall,
                                                        abs=1e-7)


# ----------------------------------------------------------------------
# following a recorded stream file
# ----------------------------------------------------------------------
def test_follow_stream_reads_recorded_file(tmp_path):
    from repro.obs import MetricsRegistry, StreamingSink, SpanRecord

    path = tmp_path / "run.stream"
    sink = StreamingSink(path, meta={"engine": "gum", "num_gpus": 1},
                         metrics=MetricsRegistry())
    sink.emit(SpanRecord(name="busy", track="gpu0", cat="worker",
                         virtual_start=0.0, virtual_dur=0.0008,
                         attrs={"gpu": 0, "iteration": 0}))
    sink.emit(SpanRecord(name="superstep", track="coordinator",
                         cat="superstep", virtual_start=0.0,
                         virtual_dur=0.001,
                         attrs={"iteration": 0, "frontier_size": 5}))
    sink.close()

    frames = []
    model = follow_stream(path, frames.append, follow=False, ansi=False)
    assert model.ended
    assert model.iteration == 0
    assert model.gpus[0].busy == pytest.approx(0.0008)
    assert len(frames) == 1  # read-once mode draws only the final frame
    assert "[done]" in frames[0]
