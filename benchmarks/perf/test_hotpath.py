"""Speedup floor and baseline regression gate for the hot path.

The ISSUE-2 acceptance criterion — "LP/MILP constraint assembly and
per-iteration pricing show >=3x speedup on the 8-GPU x 64-fragment
microbench" — is asserted here by timing the vectorized kernel against
the reference loop *in the same process*, which makes the check hold
on any machine.  The committed ``baseline.json`` gate then guards
against future regressions using calibration-normalized scores.
"""

from __future__ import annotations

import os

import pytest

from conftest import (
    BASELINE_PATH,
    naive_assembly,
    naive_edge_costs,
    naive_message_count,
    naive_price_chunks,
    naive_tree_predict,
)
from repro.bench import perfharness
from repro.core.milp import _assemble_constraints

SPEEDUP_FLOOR = 3.0


def _speedup(reference, candidate, repeats=5, min_seconds=0.05):
    ref = perfharness.time_callable(
        reference, repeats=repeats, min_seconds=min_seconds
    )
    new = perfharness.time_callable(
        candidate, repeats=repeats, min_seconds=min_seconds
    )
    return ref.seconds / new.seconds


def test_assembly_speedup(problem_64x8):
    ratio = _speedup(
        lambda: naive_assembly(problem_64x8),
        lambda: _assemble_constraints(problem_64x8),
    )
    print(f"\nconstraint assembly speedup: {ratio:.1f}x")
    assert ratio >= SPEEDUP_FLOOR


def test_pricing_speedup():
    engine, plan, features, context, n_gpus = (
        perfharness._pricing_fixture()
    )
    ratio = _speedup(
        lambda: naive_price_chunks(
            engine, plan, features, context, n_gpus
        ),
        lambda: engine._price_chunks(
            plan, context.timing.device_model.edge_costs(features),
            context, n_gpus),
    )
    print(f"\nchunk pricing speedup: {ratio:.1f}x")
    assert ratio >= SPEEDUP_FLOOR


def test_tree_predict_speedup():
    from repro.core.costmodel import DecisionTreeModel
    import numpy as np

    rng = np.random.default_rng(1)
    train = rng.uniform(0.0, 200.0, size=(512, 6))
    costs = np.exp(rng.normal(-20.0, 0.4, size=512))
    model = DecisionTreeModel()
    model.fit(train, costs)
    batch = rng.uniform(0.0, 200.0, size=(4096, 6))
    ratio = _speedup(
        lambda: naive_tree_predict(model, batch),
        lambda: model.predict(batch),
    )
    print(f"\ntree predict speedup: {ratio:.1f}x")
    assert ratio >= SPEEDUP_FLOOR


def test_bench_report_schema(bench_report):
    assert bench_report["schema"] == perfharness.SCHEMA
    assert bench_report["calibration_seconds"] > 0
    cases = bench_report["benchmarks"]
    # an unfiltered run is every case that is not on-demand
    assert {case.name for case in perfharness.select_cases()} == set(cases)
    for name, entry in cases.items():
        assert entry["seconds"] > 0, name
        assert entry["score"] > 0, name


def test_no_regression_vs_baseline(bench_report):
    if os.environ.get("REPRO_BENCH_SKIP_GATE"):
        pytest.skip("gate disabled via REPRO_BENCH_SKIP_GATE")
    if not BASELINE_PATH.exists():
        pytest.skip(
            "no committed baseline; run "
            "`python -m repro bench --update-baseline`"
        )
    baseline = perfharness.load_report(BASELINE_PATH)
    regressions = perfharness.compare_reports(bench_report, baseline)
    # Only fail on regressions that reproduce on a fresh measurement —
    # transient host noise (CPU contention, frequency scaling) does not.
    confirmed = perfharness.confirm_regressions(regressions, baseline)
    assert not confirmed, "\n" + perfharness.format_regressions(
        confirmed
    )


# ----------------------------------------------------------------------
# ISSUE-4: decision amortization must cut the per-iteration decision
# path by >=3x on the tail-heavy road workload (measured in-process,
# against the same arbitrator with amortization disabled).
# ----------------------------------------------------------------------
def test_decision_iteration_amortization_speedup():
    cold = perfharness.BENCH_CASES[
        "decision.iteration.cold.tailTX.8gpu"
    ].setup()
    amortized = perfharness.BENCH_CASES[
        "decision.iteration.amortized.tailTX.8gpu"
    ].setup()
    ratio = _speedup(cold, amortized)
    print(f"\ndecision amortization speedup: {ratio:.1f}x")
    assert ratio >= SPEEDUP_FLOOR


def test_osteal_bracket_speedup():
    scan = perfharness.BENCH_CASES["decision.osteal.scan.8gpu"].setup()
    bracket = perfharness.BENCH_CASES[
        "decision.osteal.bracket.8gpu"
    ].setup()
    ratio = _speedup(scan, bracket)
    print(f"\nosteal bracket-search speedup: {ratio:.1f}x")
    assert ratio >= SPEEDUP_FLOOR


def test_plan_cache_hit_beats_cold_solve():
    cold = perfharness.BENCH_CASES["decision.fsteal.cold.64x8"].setup()
    cached = perfharness.BENCH_CASES[
        "decision.fsteal.cached.64x8"
    ].setup()
    ratio = _speedup(cold, cached)
    print(f"\nplan-cache hit speedup: {ratio:.1f}x")
    assert ratio >= SPEEDUP_FLOOR


# ----------------------------------------------------------------------
# ISSUE-19: one pass per superstep — the bitmap vertex-set kernel under
# the message count, and one batched prediction per decision, each
# against its plain form in the same process.
# ----------------------------------------------------------------------
def test_message_count_speedup():
    # the session memoizes its last count; time the count itself
    __, frontier, context = perfharness._message_count_fixture()
    graph, partition = context.graph, context.partition
    ratio = _speedup(
        lambda: naive_message_count(
            graph, partition, frontier, True, context
        ),
        perfharness._plain_message_count(frontier, context),
    )
    print(f"\nmessage count speedup: {ratio:.1f}x")
    assert ratio >= SPEEDUP_FLOOR


def test_batched_audit_speedup():
    model, features = perfharness._audit_fixture()
    ratio = _speedup(
        lambda: naive_edge_costs(model, features),
        lambda: model.edge_costs_seconds(features),
    )
    print(f"\nbatched audit speedup: {ratio:.1f}x")
    assert ratio >= SPEEDUP_FLOOR
