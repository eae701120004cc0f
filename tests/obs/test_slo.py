"""SLO rules engine: config validation, indicators, evaluation."""

import json
import math
import pathlib

import pytest

from repro.bench.workloads import (
    algorithm_params,
    cached_partition,
    prepare_graph,
)
from repro.cli import main
from repro.errors import ReproError, SloConfigError
from repro.facade import make_engine
from repro.obs.slo import (
    MIN_HISTORY,
    SLO_SCHEMA,
    evaluate,
    ewma_zscores,
    load_policy,
    policy_from_dict,
    recovery_iterations,
    slo_indicators,
    slo_series,
)
from repro.runtime.trace import load_trace, save_trace

REPO = pathlib.Path(__file__).resolve().parents[2]


def policy(*rules):
    return policy_from_dict({"schema": SLO_SCHEMA, "rules": list(rules)})


GREEN_SUMMARY = {
    "total_ms": 26.0,
    "stall_fraction": 0.004,
    "per_gpu_utilization": [0.99, 0.0, 0.0, 1.0],
    "obs_overhead_pct": 1.2,
}

GREEN_TIMESERIES = {
    "iteration": list(range(20)),
    "wall_ms": [0.2] * 19 + [0.5],
}


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
def test_rejects_wrong_schema():
    with pytest.raises(SloConfigError, match="unsupported schema"):
        policy_from_dict({"schema": "repro-slo/99", "rules": []})


def test_rejects_empty_rules():
    with pytest.raises(SloConfigError, match="non-empty list"):
        policy_from_dict({"schema": SLO_SCHEMA, "rules": []})


def test_rejects_unknown_rule_keys():
    with pytest.raises(SloConfigError, match="unknown rule key"):
        policy({"metric": "total_ms", "max": 1.0, "treshold": 2})


def test_rejects_metric_and_series_together():
    with pytest.raises(SloConfigError, match="exactly one"):
        policy({"metric": "total_ms", "series": "wall_ms",
                "zscore_max": 3.0})


def test_bound_rule_needs_a_bound():
    with pytest.raises(SloConfigError, match="needs 'max'"):
        policy({"metric": "total_ms"})


def test_series_rule_needs_zscore():
    with pytest.raises(SloConfigError, match="needs 'zscore_max'"):
        policy({"series": "wall_ms"})


def test_rejects_bad_alpha():
    with pytest.raises(SloConfigError, match="ewma_alpha"):
        policy({"series": "wall_ms", "zscore_max": 3.0,
                "ewma_alpha": 1.5})


def test_slo_config_error_is_a_repro_error():
    assert issubclass(SloConfigError, ReproError)


def test_load_policy_json(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(
        '{"schema": "repro-slo/1", '
        '"rules": [{"metric": "total_ms", "max": 30}]}'
    )
    loaded = load_policy(path)
    assert len(loaded.rules) == 1
    assert loaded.rules[0].max == 30.0
    assert loaded.source == str(path)


def test_load_policy_yaml(tmp_path):
    yaml = pytest.importorskip("yaml")
    del yaml
    path = tmp_path / "rules.yaml"
    path.write_text(
        "schema: repro-slo/1\n"
        "rules:\n"
        "  - metric: total_ms\n"
        "    max: 30\n"
        "  - series: wall_ms\n"
        "    zscore_max: 6\n"
    )
    loaded = load_policy(path)
    assert [r.kind for r in loaded.rules] == ["bound", "series"]


def test_load_policy_missing_file(tmp_path):
    with pytest.raises(SloConfigError, match="cannot read"):
        load_policy(tmp_path / "absent.yaml")


def test_load_policy_malformed_json(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text("{nope")
    with pytest.raises(SloConfigError, match="malformed SLO rules"):
        load_policy(path)


# ----------------------------------------------------------------------
# indicators
# ----------------------------------------------------------------------
def test_indicators_quantiles_and_participating_gpus():
    indicators = slo_indicators(GREEN_SUMMARY, GREEN_TIMESERIES)
    assert indicators["p50_iteration_ms"] == pytest.approx(0.2)
    assert indicators["max_iteration_ms"] == pytest.approx(0.5)
    # idled-by-design GPUs (utilization 0 under OSteal) are excluded
    assert indicators["min_gpu_utilization"] == pytest.approx(0.99)
    assert indicators["max_stall_fraction"] == pytest.approx(0.004)
    assert indicators["obs_overhead_pct"] == pytest.approx(1.2)
    assert "chaos_recovery_iterations" not in indicators


def test_indicators_without_timeseries():
    indicators = slo_indicators(GREEN_SUMMARY)
    assert indicators["p99_iteration_ms"] is None
    assert indicators["min_gpu_utilization"] == pytest.approx(0.99)


def test_indicators_chaos_recovery():
    summary = dict(GREEN_SUMMARY)
    summary["chaos"] = {"events": [{"kind": "kill_worker",
                                    "iteration": 5}]}
    wall = [0.2] * 5 + [1.0, 0.9, 0.25] + [0.2] * 12
    timeseries = {"iteration": list(range(20)), "wall_ms": wall}
    indicators = slo_indicators(summary, timeseries)
    # baseline ewma 0.2, tolerance 1.5x => recovered at offset 2 (0.25)
    assert indicators["chaos_recovery_iterations"] == 2


def test_recovery_never_recovers_counts_remaining():
    wall = [0.2] * 5 + [1.0] * 5
    assert recovery_iterations(wall, [5]) == 5


def test_recovery_no_faults_is_none():
    assert recovery_iterations([0.2, 0.3], []) is None
    assert recovery_iterations([], [1]) is None


# ----------------------------------------------------------------------
# ewma z-scores
# ----------------------------------------------------------------------
def test_ewma_zscores_warmup_and_spike():
    values = [1.0] * 10 + [50.0]
    scores = ewma_zscores(values, alpha=0.3, warmup=5)
    assert scores[:5] == [None] * 5
    finite = [s for s in scores if s is not None]
    assert all(abs(s) < 1.0 for s in finite[:-1])
    assert scores[-1] is not None and scores[-1] > 3.0


def test_ewma_zscores_uses_only_past_samples():
    # the spike's own value must not deflate its z-score
    calm = ewma_zscores([1.0] * 20, alpha=0.3, warmup=3)
    assert all(s == 0.0 for s in calm if s is not None)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def test_bound_rules_pass_and_fail():
    report = evaluate(
        policy({"metric": "total_ms", "max": 30.0},
               {"metric": "min_gpu_utilization", "min": 0.9}),
        GREEN_SUMMARY, GREEN_TIMESERIES,
    )
    assert [o.status for o in report.outcomes] == ["PASS", "PASS"]
    assert report.ok and report.exit_code == 0

    tightened = evaluate(
        policy({"metric": "total_ms", "max": 10.0}),
        GREEN_SUMMARY, GREEN_TIMESERIES,
    )
    assert [o.status for o in tightened.outcomes] == ["FAIL"]
    assert tightened.exit_code == 1
    assert "> max 10" in tightened.outcomes[0].message


def test_bound_rule_resolves_dotted_summary_path():
    summary = dict(GREEN_SUMMARY)
    summary["breakdown_ms"] = {"communication": 4.0}
    report = evaluate(
        policy({"metric": "breakdown_ms.communication", "max": 5.0}),
        summary,
    )
    assert report.outcomes[0].status == "PASS"
    assert report.outcomes[0].observed == pytest.approx(4.0)


def test_missing_metric_fails_unless_optional():
    required = evaluate(policy({"metric": "nope", "max": 1.0}),
                        GREEN_SUMMARY)
    assert required.outcomes[0].status == "FAIL"
    optional = evaluate(
        policy({"metric": "nope", "max": 1.0, "required": False}),
        GREEN_SUMMARY,
    )
    assert optional.outcomes[0].status == "SKIP"
    assert optional.ok


def test_series_rule_flags_latency_spike():
    calm = evaluate(
        policy({"series": "wall_ms", "zscore_max": 4.0, "warmup": 3}),
        GREEN_SUMMARY,
        {"iteration": list(range(20)),
         "wall_ms": [0.2 + 0.001 * (i % 3) for i in range(20)]},
    )
    assert calm.outcomes[0].status == "PASS"

    spiky = evaluate(
        policy({"series": "wall_ms", "zscore_max": 4.0, "warmup": 3}),
        GREEN_SUMMARY,
        {"iteration": list(range(20)),
         "wall_ms": [0.2 + 0.001 * (i % 3) for i in range(19)] + [5.0]},
    )
    assert spiky.outcomes[0].status == "FAIL"
    assert "iteration 19" in spiky.outcomes[0].message


def test_series_rule_missing_series():
    report = evaluate(
        policy({"series": "wall_ms", "zscore_max": 4.0}), GREEN_SUMMARY
    )
    assert report.outcomes[0].status == "FAIL"


def test_history_rule_skips_young_registry():
    rule = {"metric": "total_ms", "zscore_max": 3.0, "history": 10}
    history = [{"total_ms": 26.0}] * (MIN_HISTORY - 1)
    report = evaluate(policy(rule), GREEN_SUMMARY, history=history)
    assert report.outcomes[0].status == "SKIP"
    assert report.ok


def test_history_rule_passes_and_fails():
    rule = {"metric": "total_ms", "zscore_max": 3.0, "history": 10}
    steady = [{"total_ms": 26.0 + 0.2 * (i % 3)} for i in range(8)]
    green = evaluate(policy(rule), GREEN_SUMMARY, history=steady)
    assert green.outcomes[0].status == "PASS"

    regressed = evaluate(policy(rule), {"total_ms": 60.0},
                         history=steady)
    assert regressed.outcomes[0].status == "FAIL"
    assert regressed.outcomes[0].observed is not None
    assert abs(regressed.outcomes[0].observed) > 3.0


def test_history_rule_reads_prior_indicators_from_their_slo_block():
    """Recorded summaries keep named indicators under ``slo``; a history
    rule on one must find them there, as it does for the current run."""
    rule = {"metric": "p99_iteration_ms", "zscore_max": 3.0,
            "history": 10}
    priors = [
        {"total_ms": 26.0, "slo": {"p99_iteration_ms": 1.0 + 0.01 * i}}
        for i in range(4)
    ]
    spiky = {"iteration": list(range(100)),
             "wall_ms": [1.0] * 95 + [50.0] * 5}
    report = evaluate(policy(rule), GREEN_SUMMARY, spiky, history=priors)
    outcome = report.outcomes[0]
    assert outcome.status == "FAIL"
    assert "over 4 runs" in outcome.message

    calm = {"iteration": list(range(100)), "wall_ms": [1.02] * 100}
    report = evaluate(policy(rule), GREEN_SUMMARY, calm, history=priors)
    assert report.outcomes[0].status == "PASS"


def test_history_rule_constant_history_zero_std():
    rule = {"metric": "total_ms", "zscore_max": 3.0, "history": 5}
    flat = [{"total_ms": 26.0}] * 5
    same = evaluate(policy(rule), {"total_ms": 26.0}, history=flat)
    assert same.outcomes[0].status == "PASS"
    moved = evaluate(policy(rule), {"total_ms": 26.5}, history=flat)
    assert moved.outcomes[0].status == "FAIL"
    assert math.isinf(abs(moved.outcomes[0].observed))


def test_report_lines_one_per_rule_plus_verdict():
    report = evaluate(
        policy({"metric": "total_ms", "max": 10.0},
               {"metric": "nope", "max": 1.0, "required": False}),
        GREEN_SUMMARY,
        subject="test-run",
    )
    lines = report.lines()
    assert len(lines) == 3
    assert lines[0].startswith("FAIL total_ms")
    assert lines[1].startswith("SKIP nope")
    assert lines[2] == "VIOLATION: 0 passed, 1 failed, 1 skipped — test-run"


def test_report_as_dict_round_trips():
    report = evaluate(policy({"metric": "total_ms", "max": 30.0}),
                      GREEN_SUMMARY, subject="x")
    payload = report.as_dict()
    assert payload["schema"] == SLO_SCHEMA
    assert payload["ok"] is True
    assert payload["rules"][0]["status"] == "PASS"
    assert payload["rules"][0]["label"] == "total_ms"


# ----------------------------------------------------------------------
# series from the trace
# ----------------------------------------------------------------------
#: ``slo check <reference> --rules benchmarks/slo/reference.yaml`` as
#: (status, label, observed) per rule, captured while series rules still
#: read a per-run ``timeseries.json``; the trace must give the same.
REFERENCE_VERDICTS = {
    "tx-bfs-4gpu": [
        ("PASS", "total_ms", 26.03477642244412),
        ("PASS", "iterations", 137.0),
        ("PASS", "p99_iteration_ms", 0.4919531464617892),
        ("PASS", "max_iteration_ms", 0.5073090101396596),
        ("PASS", "min_gpu_utilization", 0.9985),
        ("PASS", "max_stall_fraction", 0.004481367873598579),
        ("PASS", "obs_overhead_pct", 1.3960403447562664),
        ("PASS", "series[wall_ms]", 75.64661215738323),
        ("SKIP", "history[total_ms]", 26.03477642244412),
    ],
    "tx-sssp-4gpu": [
        ("FAIL", "total_ms", 38.991063475955116),
        ("PASS", "iterations", 148.0),
        ("PASS", "p99_iteration_ms", 0.43196582800218886),
        ("PASS", "max_iteration_ms", 0.48628279645154904),
        ("PASS", "min_gpu_utilization", 0.9994),
        ("PASS", "max_stall_fraction", 0.0017907513613084104),
        ("PASS", "obs_overhead_pct", 1.2082177767375633),
        ("PASS", "series[wall_ms]", 27.27250967691207),
        ("SKIP", "history[total_ms]", 38.991063475955116),
    ],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_VERDICTS))
def test_reference_verdicts_come_from_the_trace(name, tmp_path, capsys):
    pytest.importorskip("yaml")
    report_path = tmp_path / "report.json"
    rc = main([
        "slo", "check", str(REPO / "benchmarks" / "reference" / name),
        "--rules", str(REPO / "benchmarks" / "slo" / "reference.yaml"),
        "--report", str(report_path), "--runs-dir", str(tmp_path),
    ])
    capsys.readouterr()
    rules = json.loads(report_path.read_text())["rules"]
    verdicts = [(r["status"], r["label"], r["observed"]) for r in rules]
    assert verdicts == REFERENCE_VERDICTS[name]
    assert rc == (1 if name == "tx-sssp-4gpu" else 0)


def test_trace_series_match_the_iteration_records(tmp_path):
    """Eight series are the records' values exactly; the busy/stall
    three carry the trace's 6-decimal rounding, so agree to 1e-6 ms."""
    graph = prepare_graph("TX", "bfs")
    result = make_engine("gum", num_gpus=4).run(
        graph, cached_partition(graph, 4), "bfs",
        **algorithm_params("bfs", "TX"),
    )
    rows = result.iterations
    exact = {
        "iteration": [r.iteration for r in rows],
        "wall_ms": [r.wall_seconds * 1e3 for r in rows],
        "frontier_size": [r.frontier_size for r in rows],
        "frontier_edges": [r.frontier_edges for r in rows],
        "num_active": [r.num_active for r in rows],
        "group_size": [r.osteal_group_size for r in rows],
        "stolen_edges": [r.stolen_edges for r in rows],
        "fsteal": [bool(r.fsteal_applied) for r in rows],
    }
    rounded = {
        "critical_busy_ms": [
            float(r.busy_seconds[r.active_workers].max()) * 1e3
            for r in rows
        ],
        "mean_busy_ms": [
            float(r.busy_seconds[r.active_workers].mean()) * 1e3
            for r in rows
        ],
        "mean_stall_ms": [
            float(r.stall_seconds[r.active_workers].mean()) * 1e3
            for r in rows
        ],
    }
    series = slo_series(result)
    assert set(series) == set(exact) | set(rounded)
    for name, values in exact.items():
        assert series[name] == values, name
    for name, values in rounded.items():
        assert series[name] == pytest.approx(values, abs=1e-6), name
    # the archived trace yields the same arrays as the live result
    path = tmp_path / "trace.jsonl"
    save_trace(result, path)
    assert slo_series(load_trace(path)) == series
