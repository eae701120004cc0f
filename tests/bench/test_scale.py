"""The scale.* family and the harness gate it runs through.

These tests never touch rmat20 — the real cases run via
``python -m repro bench --filter scale`` (CI's ``scale-smoke`` job).
What must not drift silently is the *gate*: which invariants fail a
case, and how the one ``compare_reports`` treats a fresh report of
any family (timed, ``scale.*``, ``costmodel.*``) against a committed
baseline.
"""

import json

import pytest

from repro.bench import perfharness, scale
from repro.errors import ReproError


def _entry(**overrides):
    """A passing 2x4 report entry; override fields to break it."""
    entry = {
        "algorithm": "bfs",
        "nodes": 2,
        "gpus_per_node": 4,
        "num_gpus": 8,
        "graph": "rmat20x8",
        "num_edges": 8_000_000,
        "num_iterations": 6,
        "csr_bytes": 80_000_000,
        "resident_budget_bytes": 10_000_000,
        "capacity_ratio": 8.0,
        "shards": 16,
        "peak_resident_bytes": 9_000_000,
        "shard_loads": 100,
        "shard_evictions": 80,
        "virtual_total_ms": 8000.0,
        "virtual_ms_per_edge": 1e-3,
        "wall_seconds_in_core": 3.0,
        "wall_seconds_sharded": 3.3,
        "wall_seconds_per_shard_load": 3e-3,
        "bit_identical": True,
        "inter_node_stolen_edges": 5000,
    }
    entry.update(overrides)
    # what run_scale_case adds to the measurements
    entry["violations"] = scale.scale_violations(entry)
    entry["summary"] = scale.scale_summary(entry)
    entry["meta"] = dict(perfharness.BENCH_CASES["scale.bfs.2x4"].meta)
    return entry


def _report(name="scale.bfs.2x4", **overrides):
    return {
        "schema": perfharness.SCHEMA,
        "benchmarks": {name: _entry(**overrides)},
    }


def _mixed_report(**scale_overrides):
    """One entry of each family, as ``run_suite`` would emit them."""
    report = _report(**scale_overrides)
    report["calibration_seconds"] = 1e-3
    report["benchmarks"]["solver.greedy.8x8"] = {
        "seconds": 1e-4, "score": 0.1, "calls": 10, "repeats": 3,
        "meta": {},
    }
    report["benchmarks"]["costmodel.refit_loop"] = {
        "fitted_rmsre": 0.01, "shipped_rmsre": 0.04,
        "violations": [], "summary": "RMSRE 0.0400 -> 0.0100",
        "meta": {"on_demand": True},
    }
    return report


def _problems(current, baseline):
    return [
        reg.message
        for reg in perfharness.compare_reports(current, baseline)
    ]


class TestRegistry:
    def test_all_shapes_and_algorithms_registered(self):
        expected = {
            f"scale.{algo}.{nodes}x4"
            for algo in ("bfs", "pr") for nodes in (1, 2, 4)
        }
        assert set(scale.SCALE_CASES) == expected

    def test_names_match_case_fields(self):
        for name, case in scale.SCALE_CASES.items():
            assert name == (
                f"scale.{case.algorithm}.{case.num_nodes}"
                f"x{case.gpus_per_node}"
            )
            assert case.num_gpus == case.num_nodes * case.gpus_per_node

    def test_pr_cases_cap_rounds(self):
        for case in scale.SCALE_CASES.values():
            if case.algorithm == "pr":
                assert case.max_rounds == 5

    def test_unknown_filter_rejected(self):
        with pytest.raises(ReproError, match="no benchmark case matches"):
            perfharness.run_suite(names=["scale.dijkstra"])

    def test_cases_are_measured_and_on_demand(self):
        for name in scale.SCALE_CASES:
            case = perfharness.BENCH_CASES[name]
            assert not case.timed
            assert case.meta["on_demand"]
            assert case.meta["deterministic"] == ["virtual_ms_per_edge"]


class TestGate:
    def test_passing_entry_has_no_violations(self):
        assert _problems(_report(), _report()) == []

    def test_bit_identity_violation(self):
        problems = _problems(
            _report(bit_identical=False), _report()
        )
        assert any("bit-identical" in p for p in problems)

    def test_budget_violation(self):
        problems = _problems(
            _report(peak_resident_bytes=11_000_000), _report()
        )
        assert any("exceed" in p for p in problems)

    def test_capacity_ratio_violation(self):
        problems = _problems(
            _report(capacity_ratio=4.0), _report()
        )
        assert any("resident budget" in p for p in problems)

    def test_wall_overhead_violation(self):
        limit = scale.WALL_SECONDS_PER_SHARD_LOAD
        assert _problems(
            _report(wall_seconds_per_shard_load=limit), _report()
        ) == []
        problems = _problems(
            _report(wall_seconds_per_shard_load=1.5 * limit), _report()
        )
        assert any("ms per shard load" in p for p in problems)

    def test_multi_node_requires_inter_node_steals(self):
        problems = _problems(
            _report(inter_node_stolen_edges=0), _report()
        )
        assert any("two-level stealing" in p for p in problems)

    def test_single_node_needs_no_inter_node_steals(self):
        current = _report(
            "scale.bfs.1x4", nodes=1, num_gpus=4,
            inter_node_stolen_edges=0,
        )
        assert _problems(current, current) == []

    def test_virtual_drift_fails_against_baseline(self):
        problems = _problems(
            _report(virtual_ms_per_edge=1.001e-3), _report()
        )
        assert any("baseline" in p for p in problems)

    def test_virtual_noise_band_tolerated(self):
        wiggle = 1e-3 * (1 + perfharness.VIRTUAL_TOLERANCE / 2)
        assert _problems(
            _report(virtual_ms_per_edge=wiggle), _report()
        ) == []

    def test_case_missing_from_baseline_is_not_gated(self):
        baseline = {"schema": perfharness.SCHEMA, "benchmarks": {}}
        assert _problems(_report(), baseline) == []

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ReproError, match="schema"):
            _problems(
                {"schema": "bogus/9", "benchmarks": {}}, _report()
            )

    def test_case_violation_fails_without_a_baseline_entry(self):
        # the costmodel.* gates are self-contained: nothing committed
        current = _mixed_report()
        current["benchmarks"]["costmodel.refit_loop"]["violations"] = [
            "refit RMSRE 0.0500 does not beat the shipped model's 0.0400"
        ]
        baseline = {"schema": perfharness.SCHEMA, "benchmarks": {}}
        failures = perfharness.compare_reports(current, baseline)
        assert [(f.name, f.timing) for f in failures] == [
            ("costmodel.refit_loop", False)
        ]
        assert "does not beat" in failures[0].message
        assert "costmodel.refit_loop: refit RMSRE" in \
            perfharness.format_regressions(failures)

    def test_every_family_gates_in_one_pass(self):
        current = _mixed_report(virtual_ms_per_edge=1.001e-3,
                                bit_identical=False)
        slow = current["benchmarks"]["solver.greedy.8x8"]
        slow["seconds"], slow["score"] = 3e-4, 0.3
        failures = perfharness.compare_reports(current, _mixed_report())
        assert sorted((f.name, f.timing) for f in failures) == [
            ("scale.bfs.2x4", False), ("scale.bfs.2x4", False),
            ("solver.greedy.8x8", True),
        ]
        # only wall-clock regressions are noise-prone: the others are
        # confirmed as they stand, without re-running a case
        settled = [f for f in failures if not f.timing]
        assert perfharness.confirm_regressions(
            settled, _mixed_report()
        ) == settled

    def test_baseline_entry_missing_a_gated_field_is_bad_input(self):
        baseline = _report()
        del baseline["benchmarks"]["scale.bfs.2x4"]["virtual_ms_per_edge"]
        with pytest.raises(ReproError, match="virtual_ms_per_edge"):
            perfharness.compare_reports(_report(), baseline)


class TestReportIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        perfharness.write_report(_mixed_report(), path)
        assert perfharness.load_report(path) == _mixed_report()
        # stable bytes: indented, sorted, newline-terminated
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(
            _mixed_report(), indent=2, sort_keys=True
        ) + "\n"

    def test_format_mentions_every_case(self):
        table = perfharness.format_report(_mixed_report())
        assert "scale.bfs.2x4" in table
        assert "inter-steal" in table
        assert "costmodel.refit_loop" in table and "RMSRE" in table
        assert "solver.greedy.8x8" in table and "calibration" in table
        # a measured-only report has no latency columns to head
        assert "per call" not in perfharness.format_report(_report())

    def test_committed_baseline_is_valid(self):
        baseline = perfharness.load_report(
            "benchmarks/scale/baseline.json"
        )
        assert set(baseline["benchmarks"]) == set(scale.SCALE_CASES)
        # the committed baseline must itself satisfy the invariants
        for entry in baseline["benchmarks"].values():
            assert scale.scale_violations(entry) == []
        assert _problems(baseline, baseline) == []
