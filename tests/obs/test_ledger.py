"""The decision ledger: per-steal explainability and prediction audit.

The contract under test, end to end:

* recording is deterministic — two runs of the same workload produce
  byte-identical ledgers, and recording never perturbs virtual time;
* every arbitrator decision yields exactly one entry (cache hits are
  flagged ``cached``, never skipped; chaos evictions become
  attributable fault records, not gaps);
* the sealed online RMSRE is reconstructible bit-identically from the
  archived entries alone — the acceptance bar for ``repro explain``;
* ``export_samples`` round-trips through the cost-model training API.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.chaos import ChaosController, ChaosScenario, FaultSpec
from repro.core import GumConfig
from repro.core.costmodel import (
    MODEL_FAMILIES,
    OnlineRMSRE,
    resolve_cost_model,
)
from repro.graph.features import FrontierFeatures
from repro.obs import MetricsRegistry
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    Ledger,
    LedgerError,
    PredictionAudit,
    explain_lines,
    predicted_critical_seconds,
    reconstruct_rmsre,
)
from repro.runs import result_summary


def run_bfs(graph, source, config=None, chaos=None, **kwargs):
    return repro.run(graph, "bfs", num_gpus=4, source=source,
                     gum_config=config, chaos=chaos, **kwargs)


@pytest.fixture(scope="module")
def recorded(skewed_graph, source):
    return run_bfs(skewed_graph, source)


# ---------------------------------------------------------------------------
# recording basics


def test_gum_runs_carry_a_ledger(recorded):
    ledger = recorded.ledger
    assert ledger is not None
    assert len(ledger.entries) == recorded.num_iterations
    assert ledger.samples > 0
    # every entry got its measured cost back-filled
    assert all(e["measured"] is not None for e in ledger.entries)


def test_ledger_can_be_disabled(skewed_graph, source):
    result = run_bfs(skewed_graph, source,
                     config=GumConfig(ledger=False))
    assert result.ledger is None


def test_baselines_have_no_ledger(skewed_graph, source):
    result = run_bfs(skewed_graph, source, engine="bsp")
    assert result.ledger is None


def test_recording_never_touches_virtual_time(skewed_graph, source):
    with_ledger = run_bfs(skewed_graph, source)
    without = run_bfs(skewed_graph, source,
                      config=GumConfig(ledger=False))
    assert with_ledger.total_seconds == without.total_seconds
    assert with_ledger.num_iterations == without.num_iterations
    assert np.array_equal(with_ledger.values, without.values)


def test_repeated_runs_yield_identical_ledgers(skewed_graph, source):
    first = run_bfs(skewed_graph, source).ledger
    second = run_bfs(skewed_graph, source).ledger
    assert json.dumps(first.as_dict(), sort_keys=True) == \
        json.dumps(second.as_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# RMSRE reconstruction (the acceptance bar)


def test_final_rmsre_reconstructs_bit_identically(recorded):
    ledger = recorded.ledger
    assert ledger.final_rmsre is not None
    assert reconstruct_rmsre(ledger.entries) == ledger.final_rmsre


def test_rmsre_survives_json_round_trip(recorded):
    payload = json.loads(
        json.dumps(recorded.ledger.as_dict(), sort_keys=True)
    )
    assert payload["schema"] == LEDGER_SCHEMA
    revived = Ledger.from_dict(payload)
    assert reconstruct_rmsre(revived.entries) == \
        recorded.ledger.final_rmsre
    assert revived.summary() == recorded.ledger.summary()


def test_from_dict_rejects_unknown_schema(recorded):
    payload = recorded.ledger.as_dict()
    payload["schema"] = "repro-ledger/999"
    with pytest.raises(LedgerError):
        Ledger.from_dict(payload)


# ---------------------------------------------------------------------------
# one fold over audit samples: what recording stored, reading reproduces

REFERENCES = Path(__file__).resolve().parents[2] / "benchmarks" / "reference"


def _kill_one_worker():
    return ChaosController(ChaosScenario(
        faults=(FaultSpec("kill_worker", 1, {"worker": 2}),), seed=0,
    ))


LEDGER_SOURCES = {
    "reference-tx-bfs": lambda graph, source: Ledger.from_dict(
        json.loads((REFERENCES / "tx-bfs-4gpu" / "ledger.json").read_text())
    ),
    "reference-tx-sssp": lambda graph, source: Ledger.from_dict(
        json.loads((REFERENCES / "tx-sssp-4gpu" / "ledger.json").read_text())
    ),
    "fresh": lambda graph, source, **kw: run_bfs(graph, source, **kw).ledger,
    "chaos": lambda graph, source, **kw: run_bfs(
        graph, source, config=GumConfig(cost_model="oracle"),
        chaos=_kill_one_worker(), **kw,
    ).ledger,
    "no-amortize": lambda graph, source, **kw: run_bfs(
        graph, source, config=GumConfig(amortize=False), **kw,
    ).ledger,
}


@pytest.mark.parametrize("which", sorted(LEDGER_SOURCES))
def test_the_reader_fold_reproduces_the_recorded_numbers(
    which, skewed_graph, source
):
    """``_materialize`` and every offline reader share one fold, so the
    stored ``predicted_seconds`` recomputes exactly and a ledger
    survives serialization with every derived number intact."""
    ledger = LEDGER_SOURCES[which](skewed_graph, source)
    assert ledger.entries
    for entry in ledger.entries:
        assert predicted_critical_seconds(entry["samples"]) == \
            entry["predicted_seconds"]
    payload = ledger.as_dict()
    revived = Ledger.from_dict(json.loads(json.dumps(payload)))
    assert revived.as_dict() == payload
    assert revived.summary() == ledger.summary()


@pytest.mark.parametrize("which", ["fresh", "chaos", "no-amortize"])
def test_scoring_is_independent_of_batch_width(which, skewed_graph, source):
    """A registry reads the audit every decision, so it is scored in
    batches one decision wide; without one, in one batch at the end of
    the run. The ledgers must not tell the two apart."""
    run = LEDGER_SOURCES[which]
    per_decision = run(skewed_graph, source, metrics=MetricsRegistry())
    per_run = run(skewed_graph, source)
    assert per_decision.as_dict() == per_run.as_dict()


def test_registry_without_ledger_still_publishes_the_audit(
    skewed_graph, source
):
    ledger = run_bfs(skewed_graph, source).ledger
    registry = MetricsRegistry()
    result = run_bfs(skewed_graph, source, config=GumConfig(ledger=False),
                     metrics=registry)
    assert result.ledger is None
    assert registry.gauge("costmodel.rmsre_online").value() == \
        ledger.final_rmsre
    assert registry.gauge("costmodel.samples").value() == ledger.samples


def test_registry_scoring_reuses_the_decision_predictions(
    skewed_graph, source, monkeypatch
):
    """Under a registry the audit is scored at the end of each decision
    from that decision's prediction memo, so the predictions OSteal and
    FSteal already batched are not batched again: a decision pays at
    most one batched prediction."""
    model = resolve_cost_model("default")
    batches = []
    batch = model.edge_costs_seconds
    monkeypatch.setattr(
        model, "edge_costs_seconds",
        lambda features: batches.append(len(features)) or batch(features),
    )
    ledger = run_bfs(skewed_graph, source,
                     config=GumConfig(cost_model=model),
                     metrics=MetricsRegistry()).ledger
    assert ledger.samples
    assert len(batches) <= ledger.num_entries


@pytest.mark.parametrize("damage", [
    lambda payload: payload.update(entries=[1]),
    lambda payload: payload["entries"][0].pop("iteration"),
    lambda payload: payload["entries"][0].update(samples=None),
    lambda payload: payload["entries"][0]["samples"][0].pop("actual"),
    lambda payload: payload["entries"][0]["samples"][0].update(actual="x"),
    lambda payload: payload["entries"][0].update(measured={}),
    lambda payload: payload.update(faults=[1]),
], ids=["entry-not-object", "no-iteration", "samples-null",
        "no-actual", "actual-not-number", "measured-empty",
        "fault-not-object"])
def test_from_dict_rejects_malformed_entries(recorded, damage):
    payload = json.loads(json.dumps(recorded.ledger.as_dict()))
    damage(payload)
    with pytest.raises(LedgerError, match="ledger (entry|fault) 0"):
        Ledger.from_dict(payload)


# ---------------------------------------------------------------------------
# amortization: cache hits are recorded, never skipped


@pytest.fixture(scope="module")
def sssp_pair(skewed_weighted, source):
    amortized = repro.run(skewed_weighted, "sssp", num_gpus=4,
                          source=source)
    exact = repro.run(skewed_weighted, "sssp", num_gpus=4,
                      source=source, gum_config=GumConfig(amortize=False))
    return amortized, exact


def test_amortized_run_records_every_decision(sssp_pair):
    amortized, exact = sssp_pair
    assert len(amortized.ledger.entries) == amortized.num_iterations
    assert len(exact.ledger.entries) == exact.num_iterations


def test_cache_hits_are_flagged_cached(sssp_pair):
    amortized, exact = sssp_pair
    hits = int(amortized.decision_stats.get("hits", 0))
    assert amortized.ledger.cache_status_counts()["cached"] == hits
    # exact mode never serves from the plan cache
    off = exact.ledger.cache_status_counts()
    assert off["cached"] == 0 and off["warm"] == 0


# ---------------------------------------------------------------------------
# chaos: evictions become attributable entries, not gaps


def test_chaos_run_ledger_has_no_gaps(skewed_graph, source):
    chaos = ChaosController(ChaosScenario(
        faults=(FaultSpec("kill_worker", 1, {"worker": 2}),), seed=0,
    ))
    result = run_bfs(skewed_graph, source,
                     config=GumConfig(cost_model="oracle"), chaos=chaos)
    ledger = result.ledger
    assert len(ledger.entries) == result.num_iterations
    recorded_iters = [e["iteration"] for e in ledger.entries]
    assert recorded_iters == [r.iteration for r in result.iterations]
    faults = [f for f in ledger.faults if f["kind"] == "kill_worker"]
    assert len(faults) == 1
    assert faults[0]["worker"] == 2
    assert faults[0]["heir"] is not None
    # post-fault decisions never assign work to the dead GPU
    fault_iter = faults[0]["iteration"]
    for entry in ledger.entries:
        if entry["iteration"] >= fault_iter:
            assert all(s["worker"] != 2 for s in entry["samples"])


def test_chaos_ledger_is_deterministic(skewed_graph, source):
    def go():
        chaos = ChaosController(ChaosScenario(
            faults=(FaultSpec("kill_worker", 1, {"worker": 2}),),
            seed=0,
        ))
        return run_bfs(skewed_graph, source,
                       config=GumConfig(cost_model="oracle"),
                       chaos=chaos).ledger
    assert json.dumps(go().as_dict(), sort_keys=True) == \
        json.dumps(go().as_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# skipped-sample accounting (OnlineRMSRE regression)


def test_online_rmsre_counts_skipped_samples():
    tracker = OnlineRMSRE()
    tracker.update(1.0, 2.0)
    tracker.update(1.0, 0.0)
    tracker.update(1.0, -3.0)
    assert tracker.count == 1
    assert tracker.skipped == 2
    assert "skipped=2" in repr(tracker)


class _FixedModel:
    """Predicts 1 us per edge; the truth is 2 us except for one
    fragment, whose 0.0 the accuracy statistics must skip."""

    def __init__(self, free):
        self.free = free

    @staticmethod
    def edge_costs_seconds(frontiers):
        return [1e-6] * len(frontiers)

    def edge_costs(self, frontiers):
        return [0.0 if features is self.free else 2e-6
                for features in frontiers]


def test_ledger_counts_skipped_samples():
    counted, free = (
        FrontierFeatures(
            avg_in_degree=2.0, avg_out_degree=2.5, in_degree_range=1.0,
            out_degree_range=1.0, gini=0.1, entropy=0.9, size=2,
            total_edges=edges,
        )
        for edges in (5, 6)
    )
    truth = _FixedModel(free)
    audit = PredictionAudit(truth)
    ledger = Ledger(audit=audit)
    actual = truth.edge_costs([counted, free])
    ledger.begin(0, [5, 6], audit.add([(0, 0, counted, actual[0]),
                                       (1, 1, free, actual[1])]))
    ledger.commit(group_size=2, active_workers=[0, 1],
                  fsteal_applied=False, stolen_edges=0,
                  migrated_vertices=0)
    assert ledger.samples == 1
    assert ledger.skipped_samples == 1
    assert ledger.entries[0]["skipped"] == 1


# ---------------------------------------------------------------------------
# training-pair export


def test_export_samples_round_trips_through_fit(recorded):
    samples = recorded.ledger.export_samples()
    assert samples.features.shape == (recorded.ledger.samples, 6)
    assert (samples.costs > 0).all()
    model = MODEL_FAMILIES["polynomial"]()
    model.fit(samples.features, samples.costs)


def test_export_samples_carry_iteration_and_gpu(recorded):
    ledger = recorded.ledger
    samples = ledger.export_samples()
    assert samples.iterations.shape == samples.costs.shape
    assert samples.gpus.shape == samples.costs.shape
    # rebuild the same provenance by walking entries in feed order
    expected = [
        (entry["iteration"], sample["worker"])
        for entry in ledger.entries
        for sample in entry["samples"]
        if sample["actual"] > 0
    ]
    assert list(zip(samples.iterations.tolist(),
                    samples.gpus.tolist())) == expected


def test_export_samples_raises_when_empty():
    with pytest.raises(LedgerError):
        Ledger().export_samples()


# ---------------------------------------------------------------------------
# surfaces: summary, explain


def test_result_summary_carries_ledger_block(recorded):
    summary = result_summary(recorded)
    led = summary["ledger"]
    assert led["entries"] == recorded.num_iterations
    assert led["final_rmsre"] == recorded.ledger.final_rmsre
    json.dumps(summary)  # must stay strictly JSON-serializable


def test_explain_reports_bit_identical_rmsre(recorded):
    lines = explain_lines(recorded.ledger)
    text = "\n".join(lines)
    assert "bit-identical" in text
    assert "MISMATCH" not in text
    assert f"{len(recorded.ledger.entries)} decisions" in text


def test_explain_iteration_drilldown(recorded):
    target = recorded.ledger.entries[0]["iteration"]
    text = "\n".join(explain_lines(recorded.ledger, iteration=target))
    assert "workloads" in text
    assert "fragment" in text
    with pytest.raises(LedgerError):
        explain_lines(recorded.ledger, iteration=10**9)


# ---------------------------------------------------------------------------
# registry: archived ledgers


def test_registry_round_trips_ledger(tmp_path, recorded):
    from repro.runs import RunRegistry, workload_fingerprint

    registry = RunRegistry(tmp_path)
    run_id = registry.record_result(
        recorded,
        workload_fingerprint("gum", "bfs", "skewed", 4),
    )
    payload = registry.load_ledger(run_id)
    assert payload["schema"] == LEDGER_SCHEMA
    revived = Ledger.from_dict(payload)
    assert reconstruct_rmsre(revived.entries) == \
        recorded.ledger.final_rmsre
    manifest = registry.load_manifest(run_id)
    assert "ledger.json" in manifest["files"]


def test_registry_missing_ledger_is_an_error(tmp_path, skewed_graph,
                                             source):
    from repro.errors import RunRegistryError
    from repro.runs import RunRegistry, workload_fingerprint

    registry = RunRegistry(tmp_path)
    result = run_bfs(skewed_graph, source, engine="bsp")
    run_id = registry.record_result(
        result, workload_fingerprint("bsp", "bfs", "skewed", 4),
    )
    assert "ledger.json" not in registry.load_manifest(run_id)["files"]
    with pytest.raises(RunRegistryError):
        registry.load_ledger(run_id)


def _score_transient_bytes(num_decisions):
    """Peak bytes ``score`` holds above what it keeps, scoring
    ``num_decisions`` eight-fragment decisions at once."""
    audit = PredictionAudit(resolve_cost_model("default"))
    # held, as a ledger holds them, so what score keeps stays counted
    records = [
        audit.add([
            (fragment, fragment, FrontierFeatures(
                avg_in_degree=2.0 + decision, avg_out_degree=3.0,
                in_degree_range=1.0 + fragment, out_degree_range=4.0,
                gini=0.2, entropy=0.8, size=5, total_edges=15,
            ), 2e-6)
            for fragment in range(8)
        ])
        for decision in range(num_decisions)
    ]
    tracemalloc.start()
    try:
        audit.score()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(record.rmsre_online is not None for record in records)
    return peak - current


def test_audit_score_peak_does_not_grow_with_pending_samples():
    # scoring a run's audit in one call predicts every sample; the
    # design matrix (210 float64 columns at degree 4) is built in
    # fixed-size row blocks, so 4x the samples leaves the transient
    # peak where it was but for a few pointer-sized lists
    small = _score_transient_bytes(500)
    large = _score_transient_bytes(2000)
    samples_added = (2000 - 500) * 8
    assert large - small < 64 * samples_added, (small, large)
