"""Unit tests for trace export and timeline rendering."""

import json

import numpy as np
import pytest

from repro.errors import ReproError, TraceFormatError
from repro.hardware import dgx1
from repro.obs import result_to_spans
from repro.obs.analysis import iteration_costs
from repro.runtime import BSPEngine
from repro.runtime.metrics import (
    IterationRecord,
    RunResult,
    TimeBreakdown,
)
from repro.runtime.trace import (
    load_trace,
    render_timeline,
    save_trace,
    trace_records,
    utilization_report,
)


@pytest.fixture(scope="module")
def result(skewed_graph, skewed_partition, source):
    # session fixtures are visible from module fixtures via pytest
    return BSPEngine(dgx1(8)).run(
        skewed_graph, skewed_partition, "bfs", source=source
    )


def test_trace_records_shape(result):
    records = trace_records(result)
    assert len(records) == result.num_iterations
    first = records[0]
    assert first["iteration"] == 0
    assert len(first["busy_ms"]) == 8
    assert first["wall_ms"] == pytest.approx(
        result.iterations[0].wall_seconds * 1e3
    )
    json.dumps(records)  # JSON-serializable


def test_trace_roundtrip(tmp_path, result):
    path = tmp_path / "run.jsonl"
    save_trace(result, path)
    header, records = load_trace(path)
    assert header["engine"] == result.engine
    assert header["total_ms"] == pytest.approx(result.total_ms)
    assert len(records) == result.num_iterations
    assert records[-1]["iteration"] == result.num_iterations - 1


def test_load_empty_trace_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_trace(path)


def test_load_missing_or_binary_trace_is_a_trace_format_error(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot read"):
        load_trace(tmp_path / "absent.jsonl")
    path = tmp_path / "binary.jsonl"
    path.write_bytes(b"\x93NUMPY\xff\xfe\x00\x80")
    with pytest.raises(TraceFormatError, match="not text"):
        load_trace(path)


def test_load_malformed_trace_raises_trace_format_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"engine": "gum"}\n{"iteration": 0, "wall_')
    with pytest.raises(TraceFormatError, match=r"bad\.jsonl:2"):
        load_trace(path)


def test_load_non_object_line_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"engine": "gum"}\n[1, 2, 3]\n')
    with pytest.raises(TraceFormatError, match="expected a JSON object"):
        load_trace(path)


def test_trace_format_error_is_both_repro_and_value_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json at all\n")
    with pytest.raises(ReproError):
        load_trace(path)
    with pytest.raises(ValueError):
        load_trace(path)


def test_render_timeline(result):
    text = render_timeline(result, max_iterations=5, width=20)
    assert "busy" in text
    assert "gpu0" in text and "gpu7" in text
    assert "#" in text
    # bar width respected
    for line in text.splitlines():
        if line.strip().startswith("gpu"):
            bar = line.split(None, 1)[-1] if " " in line.strip() else ""
            assert len(bar.replace(" ", "")) <= 21


def test_render_timeline_empty():
    empty = RunResult(engine="e", algorithm="a", graph_name="g",
                      num_gpus=2, values=np.zeros(1))
    assert render_timeline(empty) == "(empty run)"


def _synthetic_result():
    """One iteration, 3 GPUs: gpu0 busy+stall, gpu1 all busy, gpu2 out."""
    breakdown = TimeBreakdown(compute=0.75, communication=0.25)
    record = IterationRecord(
        iteration=0,
        frontier_size=10,
        frontier_edges=100,
        active_workers=[0, 1],
        busy_seconds=np.array([0.5, 1.0, 0.0]),
        stall_seconds=np.array([0.5, 0.0, 0.0]),
        wall_seconds=1.0,
        breakdown=breakdown,
        osteal_group_size=2,
    )
    result = RunResult(engine="gum", algorithm="bfs", graph_name="g",
                       num_gpus=3, values=np.zeros(1),
                       iterations=[record])
    result.breakdown.add(breakdown)
    return result


def test_render_timeline_normalizes_to_busy_plus_stall():
    text = render_timeline(_synthetic_result(), width=20)
    rows = {line.split()[0]: line for line in text.splitlines()
            if line.strip().startswith("gpu")}
    # gpu1's busy+stall (1.0) is the critical path: a full bar of '#'
    assert rows["gpu1"].count("#") == 20
    assert "." not in rows["gpu1"]
    # gpu0 is half busy, half stalled — against the same critical path
    assert rows["gpu0"].count("#") == 10
    assert rows["gpu0"].count(".") == 10


def test_render_timeline_marks_evicted_workers():
    text = render_timeline(_synthetic_result(), width=20)
    assert "'-' evicted" in text.splitlines()[0]
    rows = [line for line in text.splitlines()
            if line.strip().startswith("gpu2")]
    assert rows and rows[0].count("-") == 20
    assert "#" not in rows[0] and "." not in rows[0]


def _empty_result():
    return RunResult(engine="gum", algorithm="bfs", graph_name="g",
                     num_gpus=4, values=np.zeros(1))


def _two_group_result():
    """Two iterations whose OSteal group shrinks 2 -> 1."""
    records = []
    for iteration, (active, group) in enumerate([([0, 1], 2), ([0], 1)]):
        busy = np.zeros(2)
        busy[active] = 1.0
        records.append(IterationRecord(
            iteration=iteration, frontier_size=4, frontier_edges=16,
            active_workers=active, busy_seconds=busy,
            stall_seconds=np.zeros(2), wall_seconds=1.5,
            breakdown=TimeBreakdown(compute=1.0, communication=0.5),
            osteal_group_size=group,
        ))
    return RunResult(engine="gum", algorithm="bfs", graph_name="g",
                     num_gpus=2, values=np.zeros(1), iterations=records)


def test_result_to_spans_skips_evicted_workers():
    spans = result_to_spans(_synthetic_result())
    # gpu2 was evicted by OSteal: no busy/stall span may appear on its
    # track (render_timeline shows it as a '-' row instead)
    assert not any(span.track == "gpu2" for span in spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["superstep"]) == 1
    # gpu1 is all busy: a busy span but no stall span
    assert {span.track for span in by_name["busy"]} == {"gpu0", "gpu1"}
    assert {span.track for span in by_name["stall"]} == {"gpu0"}
    # the stall span starts where the busy span ends
    gpu0_busy = next(s for s in by_name["busy"] if s.track == "gpu0")
    gpu0_stall = by_name["stall"][0]
    assert gpu0_stall.virtual_start == pytest.approx(
        gpu0_busy.virtual_start + gpu0_busy.virtual_dur
    )


def test_result_to_spans_emits_group_change_instants():
    spans = result_to_spans(_two_group_result())
    changes = [span for span in spans
               if span.name == "osteal.group_change"]
    assert len(changes) == 1
    assert changes[0].kind == "instant"
    assert changes[0].attrs["from"] == 2
    assert changes[0].attrs["to"] == 1
    assert changes[0].attrs["iteration"] == 1


def test_empty_run_exports_cleanly(tmp_path):
    empty = _empty_result()
    assert result_to_spans(empty) == []
    assert trace_records(empty) == []
    path = tmp_path / "empty-run.jsonl"
    save_trace(empty, path)
    header, records = load_trace(path)  # header-only file is valid
    assert header["num_gpus"] == 4
    assert records == []
    report = utilization_report(empty)
    assert report["iterations"] == 0
    assert report["per_gpu_busy_ms"] == [0.0] * 4


def test_empty_run_timeseries():
    header, costs = iteration_costs(_empty_result())
    assert header["num_gpus"] == 4
    assert costs == []
    json.dumps(header)


def test_load_truncated_tail_rejected(tmp_path, result):
    path = tmp_path / "truncated.jsonl"
    save_trace(result, path)
    text = path.read_text()
    path.write_text(text[:len(text) - 40])  # cut mid-record
    with pytest.raises(TraceFormatError, match="malformed trace line"):
        load_trace(path)


def test_load_trace_skips_blank_lines(tmp_path, result):
    path = tmp_path / "gaps.jsonl"
    save_trace(result, path)
    lines = path.read_text().splitlines()
    path.write_text("\n\n".join(lines) + "\n")
    header, records = load_trace(path)
    assert header["engine"] == result.engine
    assert len(records) == result.num_iterations


def test_utilization_report(result):
    report = utilization_report(result)
    assert len(report["per_gpu_busy_ms"]) == 8
    assert len(report["per_gpu_utilization"]) == 8
    assert all(0.0 <= u <= 1.0 for u in report["per_gpu_utilization"])
    assert report["iterations"] == result.num_iterations
    assert report["overall_stall_fraction"] == pytest.approx(
        result.stall_fraction()
    )
    json.dumps(report)
