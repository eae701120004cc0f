"""``repro replay``: the recording's checks, and exact counterfactuals.

Without an override a replay re-executes nothing: it checks that the
recording is consistent with itself (stored predictions and the sealed
RMSRE reconstruct, the trace is complete) — the ``repro replay
--check`` gate. With a cost-model or topology override it re-executes
the recorded workload, so its answer is the run itself: a model that
decides as the recorded one did reproduces the recorded total to the
bit, and one that decides differently is priced by what it decides.
A fingerprint field a re-execution cannot honour is refused.
"""

import json
import shutil

import pytest

import repro
from repro.bench.workloads import algorithm_params, prepare_graph
from repro.cli import main
from repro.core import GumConfig
from repro.core.costmodel import MODEL_FAMILIES, save_artifact
from repro.hardware import dgx1
from repro.obs.ledger import Ledger
from repro.partition import random_partition
from repro.replay import (
    REPLAY_SCHEMA,
    ReplayError,
    format_replay_result,
    replay_run,
)
from repro.runs import RunRegistry, workload_fingerprint
from repro.runtime import BSPEngine

REFERENCE_RUNS = (
    "benchmarks/reference/tx-bfs-4gpu",
    "benchmarks/reference/tx-sssp-4gpu",
)

#: each reference's recorded total, as ``repro replay`` prints it
REFERENCE_TOTALS = {REFERENCE_RUNS[0]: "26.0186",
                    REFERENCE_RUNS[1]: "38.9535"}

SLOW_WORKER = "benchmarks/scenarios/slow-worker.json"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, skewed_graph, source):
    """A freshly recorded GUM run in a throwaway registry."""
    registry = RunRegistry(tmp_path_factory.mktemp("reg") / "runs")
    result = repro.run(skewed_graph, "pr", num_gpus=4)
    run_id = registry.record_result(result, workload_fingerprint(
        engine="gum", algorithm="pr", graph="skewed", num_gpus=4,
    ))
    return registry, run_id, result


def _record(runs_dir, *flags):
    """Record one ``repro run`` and return the registry holding it."""
    assert main(["run", *flags, "--record", "--runs-dir", str(runs_dir)]) \
        == 0
    return RunRegistry(runs_dir)


@pytest.fixture(scope="module")
def tx_pr8(tmp_path_factory):
    """TX/pr@8 recorded under the shipped default model: a cell whose
    decisions the model steers."""
    registry = _record(tmp_path_factory.mktemp("pr8") / "runs",
                       "--graph", "TX", "--algorithm", "pr", "--gpus", "8")
    return registry, registry.load_manifest("latest")["id"]


def _tx_pr8(**kwargs):
    graph = prepare_graph("TX", "pr")
    return repro.run(graph, "pr", num_gpus=8,
                     **algorithm_params("pr", "TX"), **kwargs)


# ----------------------------------------------------------------------
# The recording's checks (no re-execution)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ref", REFERENCE_RUNS)
def test_reference_replay_is_bit_identical(tmp_path, ref):
    registry = RunRegistry(tmp_path / "runs")
    outcome = replay_run(registry, ref)
    assert outcome.bit_identical
    assert all(outcome.checks.values()), outcome.checks
    assert set(outcome.checks) == {"predicted_seconds", "final_rmsre",
                                   "complete"}
    # nothing was re-executed
    assert outcome.replayed_total_ms is None
    assert outcome.decisions_changed is None
    assert outcome.diff is None
    assert f"{outcome.recorded_total_ms:.4f}" == REFERENCE_TOTALS[ref]


def test_fresh_recording_replays_bit_identically(recorded):
    registry, run_id, result = recorded
    outcome = replay_run(registry, run_id)
    assert outcome.bit_identical
    # exact equality: the manifest stores the run's own total
    assert outcome.recorded_total_ms == result.total_ms
    assert outcome.supersteps == result.num_iterations
    assert outcome.decisions == len(result.ledger.entries)
    assert outcome.run_id == run_id
    assert outcome.model_label is None


def test_replay_is_deterministic(recorded):
    registry, run_id, _ = recorded
    a = replay_run(registry, run_id)
    b = replay_run(registry, run_id)
    assert a.as_dict() == b.as_dict()


def test_as_dict_is_schemaed_json(recorded, tx_pr8):
    registry, run_id, _ = recorded
    payload = replay_run(registry, run_id).as_dict()
    assert payload["schema"] == REPLAY_SCHEMA == "repro-replay/2"
    json.dumps(payload)  # no numpy scalars may leak through
    registry, run_id = tx_pr8
    payload = replay_run(registry, run_id, cost_model="uniform").as_dict()
    assert payload["diff"]["deltas"]
    json.dumps(payload)


# ----------------------------------------------------------------------
# Re-execution: the exact counterfactual
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", ["default", "uniform", "oracle"])
@pytest.mark.parametrize("ref", REFERENCE_RUNS)
def test_reference_reexecutes_to_the_bit(tmp_path, ref, model):
    """On both references every model decides as the recorded one did,
    so the re-executed total is the recorded one, bit for bit."""
    outcome = replay_run(RunRegistry(tmp_path / "runs"), ref,
                         cost_model=model)
    assert outcome.replayed_total_ms == outcome.recorded_total_ms
    assert f"{outcome.replayed_total_ms:.4f}" == REFERENCE_TOTALS[ref]
    assert outcome.decisions_changed == 0
    assert outcome.bit_identical
    assert outcome.model_label == model


def test_model_override_is_not_bit_identical(tx_pr8):
    registry, run_id = tx_pr8
    outcome = replay_run(registry, run_id, cost_model="oracle")
    assert not outcome.bit_identical
    # the recording itself is still consistent; the run differs
    assert all(outcome.checks.values()), outcome.checks
    assert outcome.model_label == "oracle"
    assert outcome.replayed_total_ms == _tx_pr8(
        cost_model="oracle").total_ms
    assert outcome.replayed_total_ms != outcome.recorded_total_ms
    assert 0 < outcome.decisions_changed <= outcome.decisions
    total = outcome.diff.deltas[0]
    assert total.name == "total_ms"
    assert total.current == outcome.replayed_total_ms


def test_fitted_artifact_override_reexecutes(tx_pr8, tmp_path):
    registry, run_id = tx_pr8
    samples = Ledger.from_dict(registry.load_ledger(run_id)) \
        .export_samples()
    model = MODEL_FAMILIES["tree"]()
    model.fit(samples.features, samples.costs)
    path = tmp_path / "model.json"
    save_artifact(model, path)
    outcome = replay_run(registry, run_id, cost_model=str(path))
    assert outcome.model_label.startswith("artifact:tree@")
    assert outcome.replayed_total_ms == _tx_pr8(
        cost_model=str(path)).total_ms
    text = format_replay_result(outcome)
    assert "re-executed" in text
    assert "decisions changed" in text
    assert "total_ms" in text  # runs diff's rows


def test_no_osteal_recording_reexecutes_to_the_bit(tmp_path):
    """The fingerprint carries a disabled toggle, so the re-run keeps
    OSteal off; turning it back on would change the run."""
    registry = _record(tmp_path / "runs", "--graph", "TX",
                       "--algorithm", "bfs", "--gpus", "4", "--no-osteal")
    manifest = registry.load_manifest("latest")
    assert manifest["fingerprint"]["workload"]["osteal"] is False
    outcome = replay_run(registry, "latest", cost_model="default")
    assert outcome.replayed_total_ms == outcome.recorded_total_ms
    assert outcome.decisions_changed == 0
    assert outcome.bit_identical
    with_osteal = repro.run(prepare_graph("TX", "bfs"), "bfs", num_gpus=4,
                            **algorithm_params("bfs", "TX"))
    assert with_osteal.total_ms != outcome.replayed_total_ms


def test_recorded_topology_reexecutes_to_the_bit(tmp_path):
    registry = _record(tmp_path / "runs", "--graph", "TX",
                       "--algorithm", "bfs", "--topology", "nodes=2x2")
    outcome = replay_run(registry, "latest", cost_model="default")
    assert outcome.replayed_total_ms == outcome.recorded_total_ms
    assert outcome.decisions_changed == 0
    assert not any("workload mismatch" in note
                   for note in outcome.diff.notes)


# ----------------------------------------------------------------------
# Topology overrides
# ----------------------------------------------------------------------
def test_identical_topology_override_changes_nothing(tmp_path):
    outcome = replay_run(RunRegistry(tmp_path / "runs"), REFERENCE_RUNS[0],
                         topology="default")
    assert outcome.replayed_total_ms == outcome.recorded_total_ms
    assert outcome.decisions_changed == 0
    assert outcome.bit_identical
    assert outcome.model_label is None


def test_degraded_topology_costs_time(tmp_path):
    registry = RunRegistry(tmp_path / "runs")
    # the 2x2 cluster reaches half its GPUs over inter-node links that
    # are far slower than the DGX-1's NVLinks
    outcome = replay_run(registry, REFERENCE_RUNS[0],
                         topology="nodes=2x2")
    assert outcome.topology_label
    assert outcome.replayed_total_ms > outcome.recorded_total_ms
    # the reference was recorded with --no-amortize --cost-model oracle
    graph = prepare_graph("TX", "bfs")
    assert outcome.replayed_total_ms == repro.run(
        graph, "bfs", topology="nodes=2x2", cost_model="oracle",
        gum_config=GumConfig(amortize=False),
        **algorithm_params("bfs", "TX"),
    ).total_ms
    assert not outcome.bit_identical


def test_gpu_count_mismatch_is_rejected(tmp_path):
    with pytest.raises(ReplayError, match="GPUs"):
        replay_run(RunRegistry(tmp_path / "runs"), REFERENCE_RUNS[0],
                   topology="nodes=2x4")


# ----------------------------------------------------------------------
# Fingerprint fields a re-execution cannot honour
# ----------------------------------------------------------------------
def test_chaos_recording_is_refused(tmp_path):
    registry = _record(tmp_path / "runs", "--graph", "TX",
                       "--algorithm", "bfs", "--gpus", "4",
                       "--chaos", SLOW_WORKER)
    # the recording itself still checks ...
    assert replay_run(registry, "latest").bit_identical
    # ... but the scenario is stored by name only
    with pytest.raises(ReplayError, match="'chaos'"):
        replay_run(registry, "latest", cost_model="default")


def test_artifact_label_without_a_path_is_refused(tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(REFERENCE_RUNS[0], run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["fingerprint"]["workload"]["cost_model"] = \
        "artifact:tree@0123abcd"
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ReplayError, match="'cost_model'"):
        replay_run(RunRegistry(tmp_path / "runs"), str(run_dir),
                   topology="dgx1")


def test_unbundled_graph_is_refused(recorded):
    registry, run_id, _ = recorded
    with pytest.raises(ReplayError, match="'graph'"):
        replay_run(registry, run_id, cost_model="default")


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
    """An incomplete recording is not identical.

    Every check of a cut-short trace's own supersteps still passes, so
    without ``complete`` the gate would pass on 4 of the reference's
    137 supersteps.
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
    """``--check`` under an override gates the re-execution: it fails
    when the override changes the run."""
    code = main(["replay", REFERENCE_RUNS[0],
                 "--topology", "nodes=2x2", "--check"])
    assert code == 1
    assert main(["replay", REFERENCE_RUNS[0],
                 "--cost-model", "uniform", "--check"]) == 0


def test_cli_prints_both_totals_and_the_diff_rows(capsys):
    assert main(["replay", REFERENCE_RUNS[1], "--cost-model",
                 "uniform"]) == 0
    out = capsys.readouterr().out
    assert ("recorded 38.9535 ms, re-executed 38.9535 ms "
            "(+0.0000 ms); 0 of 148 decisions changed") in out
    assert "total_ms" in out and "breakdown_ms.compute" in out


def test_cli_json_payload(capsys):
    assert main(["replay", REFERENCE_RUNS[0], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == REPLAY_SCHEMA
    assert payload["bit_identical"] is True
    assert payload["replayed_total_ms"] is None


def test_cli_bad_ref_exits_2(tmp_path, capsys):
    code = main(["replay", "no-such-run",
                 "--runs-dir", str(tmp_path / "empty")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
