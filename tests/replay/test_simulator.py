"""The replay simulator (repro.replay) and its pinned invariants.

The headline contract: replaying a recorded run under its **original**
model is bit-identical — every per-iteration wall and the end-to-end
total equal the recording exactly, and all four byte-level checks
(no-op span-DAG replay, stored-prediction reconstruction, sealed RMSRE
reconstruction, trace completeness) pass. Model and topology overrides perturb virtual
time deterministically, and degenerate overrides (same topology,
oracle model, mismatched GPU counts) behave as documented.
"""

import json
import shutil

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.costmodel import (
    MODEL_FAMILIES,
    UniformCostModel,
    save_artifact,
)
from repro.errors import ReproError
from repro.hardware import dgx1
from repro.partition import random_partition
from repro.replay import (
    REPLAY_SCHEMA,
    ReplayError,
    format_replay_result,
    replay_run,
    resolve_replay_model,
)
from repro.runs import RunRegistry, workload_fingerprint
from repro.runtime import BSPEngine

REFERENCE_RUNS = (
    "benchmarks/reference/tx-bfs-4gpu",
    "benchmarks/reference/tx-sssp-4gpu",
)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, skewed_graph, source):
    """A freshly recorded GUM run in a throwaway registry."""
    registry = RunRegistry(tmp_path_factory.mktemp("reg") / "runs")
    result = repro.run(skewed_graph, "pr", num_gpus=4)
    run_id = registry.record_result(result, workload_fingerprint(
        engine="gum", algorithm="pr", graph="skewed", num_gpus=4,
    ))
    return registry, run_id, result


# ----------------------------------------------------------------------
# Bit-identity under the original model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ref", REFERENCE_RUNS)
def test_reference_replay_is_bit_identical(tmp_path, ref):
    registry = RunRegistry(tmp_path / "runs")
    outcome = replay_run(registry, ref)
    assert outcome.bit_identical
    assert all(outcome.checks.values()), outcome.checks
    # exact equality, not approx: the invariant is byte-level
    assert outcome.replayed_total_ms == outcome.recorded_total_ms
    for it in outcome.iterations:
        assert it.replayed_wall_ms == it.recorded_wall_ms


def test_fresh_recording_replays_bit_identically(recorded):
    registry, run_id, result = recorded
    outcome = replay_run(registry, run_id)
    assert outcome.bit_identical
    assert outcome.replayed_total_ms == outcome.recorded_total_ms
    assert outcome.replayed_total_ms == pytest.approx(result.total_ms)
    assert outcome.run_id == run_id
    assert outcome.model_label is None


def test_replay_is_deterministic(recorded):
    registry, run_id, _ = recorded
    a = replay_run(registry, run_id)
    b = replay_run(registry, run_id)
    assert a.as_dict() == b.as_dict()


def test_as_dict_is_schemaed_json(recorded):
    registry, run_id, _ = recorded
    payload = replay_run(registry, run_id).as_dict()
    assert payload["schema"] == REPLAY_SCHEMA
    json.dumps(payload)  # no numpy scalars may leak through


# ----------------------------------------------------------------------
# Model overrides
# ----------------------------------------------------------------------
def test_model_override_is_not_bit_identical(recorded):
    registry, run_id, _ = recorded
    outcome = replay_run(registry, run_id,
                         cost_model=UniformCostModel())
    assert not outcome.bit_identical
    # the override shifts predictions, never the byte-level checks of
    # the original-model path
    assert all(outcome.checks.values()), outcome.checks
    assert outcome.model_label == "uniform"
    assert outcome.model_rmsre is not None
    assert outcome.replayed_total_ms != outcome.recorded_total_ms


def test_fitted_artifact_override_attributes_per_gpu(recorded,
                                                     tmp_path):
    registry, run_id, result = recorded
    samples = result.ledger.export_samples()
    model = MODEL_FAMILIES["tree"]()
    model.fit(samples.features, samples.costs)
    path = tmp_path / "model.json"
    save_artifact(model, path)
    outcome = replay_run(registry, run_id, cost_model=str(path))
    assert outcome.model_label.startswith("artifact:tree@")
    assert outcome.by_gpu  # per-GPU provenance made it through
    for stats in outcome.by_gpu.values():
        assert stats["count"] > 0
        assert np.isfinite(stats["rmsre"])
    text = format_replay_result(outcome)
    assert "not bit-identical" in text


def test_resolve_replay_model_rejects_the_oracle():
    with pytest.raises(ReplayError, match="oracle"):
        resolve_replay_model("oracle")


def test_resolve_replay_model_named_specs():
    assert resolve_replay_model("uniform").name == "uniform"
    assert resolve_replay_model("default").name.startswith("poly")


# ----------------------------------------------------------------------
# Topology overrides
# ----------------------------------------------------------------------
def test_identical_topology_override_changes_nothing(recorded):
    registry, run_id, _ = recorded
    outcome = replay_run(registry, run_id, topology="default")
    # the bandwidth ratio is exactly 1.0, so every per-iteration
    # communication delta is exactly zero
    assert outcome.replayed_total_ms == outcome.recorded_total_ms
    assert all(it.communication_delta_ms == 0.0
               for it in outcome.iterations)
    # but an override was requested, so the gate must not claim
    # bit-identity
    assert not outcome.bit_identical


def test_degraded_topology_costs_time(tmp_path):
    registry = RunRegistry(tmp_path / "runs")
    # the 2x2 cluster reaches half its GPUs over inter-node links that
    # are far slower than the DGX-1's NVLinks
    outcome = replay_run(registry, REFERENCE_RUNS[0],
                         topology="nodes=2x2")
    assert outcome.topology_label
    assert outcome.replayed_total_ms > outcome.recorded_total_ms


def test_gpu_count_mismatch_is_rejected(recorded):
    registry, run_id, _ = recorded
    with pytest.raises(ReplayError, match="GPUs"):
        replay_run(registry, run_id, topology="nodes=2x4")


# ----------------------------------------------------------------------
# Error paths and the CLI gate
# ----------------------------------------------------------------------
def test_unledgered_run_is_a_replay_error(tmp_path, skewed_graph,
                                          source):
    registry = RunRegistry(tmp_path / "runs")
    result = BSPEngine(dgx1(4)).run(
        skewed_graph, random_partition(skewed_graph, 4, seed=0),
        "bfs", source=source,
    )
    run_id = registry.record_result(result, workload_fingerprint(
        engine="bsp", algorithm="bfs", graph="skewed", num_gpus=4,
    ))
    with pytest.raises(ReplayError, match="ledger"):
        replay_run(registry, run_id)


def test_cli_check_passes_on_reference(capsys):
    assert main(["replay", REFERENCE_RUNS[0], "--check"]) == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out


def test_cli_check_fails_on_a_truncated_trace(tmp_path, capsys):
    """The fourth invariant: an incomplete recording is not identical.

    Every superstep that *is* in a cut-short trace still replays to its
    own wall, so without ``complete`` the gate would pass on 4 of the
    reference's 137 supersteps.
    """
    run_dir = tmp_path / "tx-bfs-4gpu"
    shutil.copytree(REFERENCE_RUNS[0], run_dir)
    lines = (run_dir / "trace.jsonl").read_text().splitlines(True)
    (run_dir / "trace.jsonl").write_text("".join(lines[:5]))
    outcome = replay_run(RunRegistry(tmp_path / "runs"), str(run_dir))
    assert not outcome.bit_identical
    assert outcome.checks["complete"] is False
    assert all(passed for name, passed in outcome.checks.items()
               if name != "complete")
    assert main(["replay", str(run_dir), "--check"]) == 1
    assert "complete=FAIL" in capsys.readouterr().out


def test_cli_check_fails_under_an_override(capsys):
    code = main(["replay", REFERENCE_RUNS[0],
                 "--cost-model", "uniform", "--check"])
    assert code == 1


def test_cli_json_payload(capsys):
    assert main(["replay", REFERENCE_RUNS[0], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == REPLAY_SCHEMA
    assert payload["bit_identical"] is True


def test_cli_bad_ref_exits_2(tmp_path, capsys):
    code = main(["replay", "no-such-run",
                 "--runs-dir", str(tmp_path / "empty")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
