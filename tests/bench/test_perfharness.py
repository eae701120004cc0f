"""The bench harness's gate and report, over both kinds of case.

The real cases run through ``python -m repro bench``; what must not
drift silently is how the one ``compare_reports`` treats a fresh
report of timed and measured (``costmodel.*``/``replay.*``) cases
against a committed baseline, and the report's bytes.
"""

import json

import pytest

from repro.bench import perfharness
from repro.errors import ReproError


def _report():
    """One timed and one measured entry, as ``run_suite`` emits them."""
    return {
        "schema": perfharness.SCHEMA,
        "calibration_seconds": 1e-3,
        "benchmarks": {
            "solver.greedy.8x8": {
                "seconds": 1e-4, "score": 0.1, "calls": 10, "repeats": 3,
                "meta": {},
            },
            "costmodel.refit_loop": {
                "fitted_rmsre": 0.01, "shipped_rmsre": 0.04,
                "violations": [], "summary": "RMSRE 0.0400 -> 0.0100",
                "meta": {"on_demand": True},
            },
        },
    }


def test_a_clean_report_passes_its_own_baseline():
    assert perfharness.compare_reports(_report(), _report()) == []


def test_every_kind_gates_in_one_pass():
    current = _report()
    slow = current["benchmarks"]["solver.greedy.8x8"]
    slow["seconds"], slow["score"] = 3e-4, 0.3
    current["benchmarks"]["costmodel.refit_loop"]["violations"] = [
        "refit RMSRE 0.0500 does not beat the shipped model's 0.0400"
    ]
    failures = perfharness.compare_reports(current, _report())
    assert sorted((f.name, f.timing) for f in failures) == [
        ("costmodel.refit_loop", False), ("solver.greedy.8x8", True),
    ]
    assert "costmodel.refit_loop: refit RMSRE" in \
        perfharness.format_regressions(failures)
    # only wall-clock regressions are noise-prone: a violation is
    # confirmed as it stands, without re-running a case
    settled = [f for f in failures if not f.timing]
    assert perfharness.confirm_regressions(settled, _report()) == settled


def test_a_case_missing_from_the_baseline_gates_only_its_violations():
    current = _report()
    slow = current["benchmarks"]["solver.greedy.8x8"]
    slow["seconds"], slow["score"] = 3e-4, 0.3
    empty = {"schema": perfharness.SCHEMA, "benchmarks": {}}
    assert perfharness.compare_reports(current, empty) == []


def test_schema_mismatch_rejected():
    with pytest.raises(ReproError, match="schema"):
        perfharness.compare_reports(
            {"schema": "bogus/9", "benchmarks": {}}, _report()
        )


def test_baseline_entry_missing_a_gated_field_is_bad_input():
    baseline = _report()
    del baseline["benchmarks"]["solver.greedy.8x8"]["score"]
    with pytest.raises(ReproError, match="score"):
        perfharness.compare_reports(_report(), baseline)


def test_report_round_trip_is_stable_bytes(tmp_path):
    path = tmp_path / "report.json"
    perfharness.write_report(_report(), path)
    assert perfharness.load_report(path) == _report()
    # indented, sorted, newline-terminated
    assert path.read_text() == json.dumps(
        _report(), indent=2, sort_keys=True
    ) + "\n"


def test_format_mentions_every_case():
    table = perfharness.format_report(_report())
    assert "costmodel.refit_loop" in table and "RMSRE" in table
    assert "solver.greedy.8x8" in table and "calibration" in table
    # a measured-only report has no latency columns to head
    measured = _report()
    del measured["benchmarks"]["solver.greedy.8x8"]
    assert "per call" not in perfharness.format_report(measured)
