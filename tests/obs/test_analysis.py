"""Unit tests for critical-path attribution."""

import json

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.hardware import dgx1
from repro.obs.analysis import ATTRIBUTION_BUCKETS, analyze, format_report
from repro.runtime import BSPEngine
from repro.runtime.trace import load_trace, save_trace


@pytest.fixture(scope="module")
def result(skewed_graph, skewed_partition, source):
    return BSPEngine(dgx1(8)).run(
        skewed_graph, skewed_partition, "bfs", source=source
    )


def _records():
    """Two hand-checkable supersteps, 3 GPUs, gpu2 evicted.

    Breakdown buckets sum to wall in both (as engine traces do);
    iteration 1 applied FSteal.
    """
    return [
        {
            "iteration": 0, "wall_ms": 4.0,
            "busy_ms": [1.0, 3.0, 0.0], "stall_ms": [2.0, 0.0, 0.0],
            "active_workers": [0, 1],
            "breakdown_ms": {"compute": 1.5, "communication": 1.5,
                             "serialization": 0.2, "sync": 0.5,
                             "overhead": 0.3},
            "frontier_edges": 100, "stolen_edges": 0,
            "fsteal": False, "group_size": 2,
        },
        {
            "iteration": 1, "wall_ms": 3.0,
            "busy_ms": [2.0, 1.0, 0.0], "stall_ms": [0.0, 1.0, 0.0],
            "active_workers": [0, 1],
            "breakdown_ms": {"compute": 1.0, "communication": 1.0,
                             "serialization": 0.2, "sync": 0.5,
                             "overhead": 0.3},
            "frontier_edges": 200, "stolen_edges": 50,
            "fsteal": True, "group_size": 2,
        },
    ]


def _header():
    return {"engine": "gum", "algorithm": "bfs", "graph": "synthetic",
            "num_gpus": 3, "total_ms": 7.0}


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def test_attribution_sums_to_total_ms(result):
    report = analyze(result)
    assert report.total_ms == pytest.approx(result.total_ms, rel=1e-9)
    bucket_sum = sum(report.buckets_ms.values())
    # acceptance criterion: buckets sum to total within 1%
    assert bucket_sum == pytest.approx(report.total_ms, rel=0.01)
    # and in practice to machine precision
    assert bucket_sum == pytest.approx(report.total_ms, rel=1e-9)
    assert set(report.buckets_ms) == set(ATTRIBUTION_BUCKETS)


def test_per_iteration_attribution_exact():
    report = analyze((_header(), _records()))
    first = report.iterations[0]
    assert first.attribution_ms == pytest.approx({
        # stall = critical - mean busy = 3.0 - 2.0, pulled out of the
        # engine's communication bucket
        "compute": 1.5, "communication": 0.5,
        "stall": 1.0, "coordinator": 1.0,
    })
    assert sum(first.attribution_ms.values()) == pytest.approx(
        first.wall_ms
    )


def test_straggler_naming():
    report = analyze((_header(), _records()))
    assert report.straggler_series() == [1, 0]
    assert report.straggler_counts == [1, 1, 0]
    # gpu0's critical superstep is shorter (2.0 ms vs 3.0 ms), so the
    # dominant straggler tie-breaks by count order
    assert report.dominant_straggler() in (0, 1)
    assert report.per_gpu_critical_ms == pytest.approx([2.0, 3.0, 0.0])


def test_analyze_loaded_trace_matches_runresult(tmp_path, result):
    path = tmp_path / "run.jsonl"
    save_trace(result, path)
    from_file = analyze(load_trace(path))
    from_result = analyze(result)
    assert from_file.total_ms == pytest.approx(
        from_result.total_ms, rel=1e-6
    )
    assert (from_file.straggler_series()
            == from_result.straggler_series())
    assert from_file.num_gpus == from_result.num_gpus


def test_report_as_dict_is_json(result):
    payload = analyze(result).as_dict()
    json.dumps(payload)
    assert payload["num_iterations"] == result.num_iterations


def test_critical_path_equals_total(result):
    # barrier-to-barrier structure: critical busy + coordinator tail
    # per superstep = the superstep's wall; summed = total
    assert analyze((_header(), _records())).critical_path_ms == \
        pytest.approx(7.0)
    assert analyze(result).critical_path_ms == pytest.approx(
        result.total_ms, rel=1e-9
    )


def test_analyze_empty_run():
    report = analyze(({}, []))
    assert report.total_ms == 0.0
    assert report.num_iterations == 0
    assert report.dominant_straggler() is None
    assert report.critical_path_ms == 0.0


# ----------------------------------------------------------------------
# Malformed input
# ----------------------------------------------------------------------
def test_analyze_rejects_non_trace():
    with pytest.raises(TraceFormatError, match="cannot analyze"):
        analyze(42.0)


def test_analyze_rejects_missing_busy():
    with pytest.raises(TraceFormatError, match="busy_ms"):
        analyze(({}, [{"iteration": 0, "wall_ms": 1.0}]))


def test_analyze_rejects_shape_mismatch():
    record = {"iteration": 0, "wall_ms": 1.0,
              "busy_ms": [1.0, 2.0], "stall_ms": [0.0]}
    with pytest.raises(TraceFormatError, match="stall_ms"):
        analyze(({}, [record]))


def test_analyze_rejects_out_of_range_worker():
    record = {"iteration": 0, "wall_ms": 1.0, "busy_ms": [1.0, 2.0],
              "stall_ms": [0.0, 0.0], "active_workers": [0, 5]}
    with pytest.raises(TraceFormatError, match="out of\n*.range|out of"):
        analyze(({}, [record]))


def test_foreign_trace_without_breakdown():
    # a minimal non-repro trace still analyzes: critical busy becomes
    # compute, the post-barrier remainder becomes coordinator
    record = {"iteration": 0, "wall_ms": 5.0, "busy_ms": [1.0, 4.0]}
    report = analyze([record])
    assert report.total_ms == pytest.approx(5.0)
    assert report.buckets_ms["compute"] == pytest.approx(4.0)
    assert report.buckets_ms["coordinator"] == pytest.approx(1.0)
    assert sum(report.buckets_ms.values()) == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------
def test_format_report_and_replay():
    source = (_header(), _records())
    text = format_report(analyze(source))
    assert "critical path" in text
    for bucket in ATTRIBUTION_BUCKETS:
        assert bucket in text
    assert "dominant" in text
