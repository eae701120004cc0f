"""Registry harvesting, candidate fitting, artifacts, facade plumbing.

The file keeps its original name so its test ids stay stable; the
modules it covers are
:mod:`repro.core.costmodel` (artifacts) and
:mod:`repro.core.costmodel_fit` (harvest / fit). The contracts:

* ``repro-costmodel/1`` artifacts round-trip every serializable family
  **bit-identically** — a model loaded from disk predicts the exact
  same floats as the one that was saved — and reject tampering.
* ``harvest`` deduplicates byte-identical workload fingerprints but
  never merges distinct ones, skips unledgered/sample-free runs
  loudly, and keeps per-row provenance (run, iteration, GPU).
* ``fit_candidates`` scores every candidate family and the shipped
  polynomial on the *same* held-out folds, and validates its knobs.
* the facade accepts an artifact path anywhere a cost model goes and
  stamps the stable artifact label (not the path) into the ledger.
"""

import json

import numpy as np
import pytest

import repro
from repro.chaos import ChaosController, ChaosScenario, FaultSpec
from repro.core import GumConfig
from repro.core.costmodel import (
    COSTMODEL_SCHEMA,
    MODEL_FAMILIES,
    DecisionTreeModel,
    UniformCostModel,
    artifact_label,
    load_artifact,
    model_from_params,
    model_to_params,
    pretrained_default,
    rmsre,
    save_artifact,
)
from repro.core.costmodel_fit import (
    CANDIDATE_FAMILIES,
    fit_candidates,
    harvest,
)
from repro.errors import CostModelError, EngineError
from repro.hardware import dgx1
from repro.partition import random_partition
from repro.runs import RunRegistry, workload_fingerprint
from repro.runtime import BSPEngine


@pytest.fixture(scope="module")
def gum_result(skewed_graph, source):
    return repro.run(skewed_graph, "bfs", num_gpus=4, source=source)


@pytest.fixture(scope="module")
def pr_result(skewed_graph):
    # PageRank runs far more supersteps than BFS on the tiny skewed
    # graph, so its ledger is the better training corpus
    return repro.run(skewed_graph, "pr", num_gpus=4)


@pytest.fixture(scope="module")
def training(gum_result):
    """(features, costs) straight from a real run's ledger."""
    samples = gum_result.ledger.export_samples()
    return samples.features, samples.costs


@pytest.fixture()
def registry(tmp_path):
    return RunRegistry(tmp_path / "runs")


def _record(registry, result, algorithm="bfs", **overrides):
    workload = workload_fingerprint(
        engine="gum", algorithm=algorithm, graph="skewed",
        num_gpus=4, **overrides,
    )
    return registry.record_result(result, workload)


# ----------------------------------------------------------------------
# Artifact round-trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(MODEL_FAMILIES))
def test_artifact_roundtrip_is_bit_identical(family, training, tmp_path):
    X, y = training
    model = MODEL_FAMILIES[family]()
    model.fit(X, y)
    path = tmp_path / f"{family}.json"
    artifact = save_artifact(model, path)
    assert artifact["schema"] == COSTMODEL_SCHEMA
    loaded = load_artifact(path)
    # exact equality: an artifact is the model, not an approximation
    assert np.array_equal(loaded.predict(X), model.predict(X))
    assert loaded.artifact_label == artifact_label(artifact)
    assert loaded.artifact_label.startswith(
        f"artifact:{artifact['family']}@"
    )


def test_uniform_model_roundtrips(tmp_path):
    model = UniformCostModel(cost_seconds=3.5e-9)
    path = tmp_path / "uniform.json"
    save_artifact(model, path)
    loaded = load_artifact(path)
    X = np.ones((4, 6))
    assert np.array_equal(loaded.predict(X), model.predict(X))


def test_artifact_label_is_content_addressed(training, tmp_path):
    X, y = training
    labels = []
    for name in ("a.json", "b.json"):
        model = MODEL_FAMILIES["tree"]()
        model.fit(X, y)
        labels.append(
            artifact_label(save_artifact(model, tmp_path / name))
        )
    # the tree fit is deterministic, so both fits serialize to the
    # same parameters and therefore the same digest — the label names
    # the model, not the file it happens to live in
    assert labels[0] == labels[1]


def test_tampered_artifact_is_rejected(training, tmp_path):
    X, y = training
    model = MODEL_FAMILIES["tree"]()
    model.fit(X, y)
    path = tmp_path / "model.json"
    save_artifact(model, path)
    artifact = json.loads(path.read_text())
    artifact["parameters"]["node_value"][0] += 1.0
    path.write_text(json.dumps(artifact))
    with pytest.raises(CostModelError, match="digest"):
        load_artifact(path)


def test_wrong_schema_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema": "something-else/9"}))
    with pytest.raises(CostModelError, match="schema"):
        load_artifact(path)


def test_corrupt_json_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(CostModelError, match="malformed"):
        load_artifact(path)


def test_missing_file_is_rejected(tmp_path):
    with pytest.raises(CostModelError, match="cannot read"):
        load_artifact(tmp_path / "absent.json")


def test_unfitted_model_cannot_serialize():
    with pytest.raises(CostModelError, match="unfitted"):
        model_to_params(DecisionTreeModel())


def test_unknown_family_cannot_deserialize():
    with pytest.raises(CostModelError, match="family"):
        model_from_params("perceptron", {})


# ----------------------------------------------------------------------
# Harvesting
# ----------------------------------------------------------------------
def test_harvest_keeps_row_provenance(registry, gum_result):
    run_id = _record(registry, gum_result)
    corpus = harvest(registry)
    assert len(corpus) > 0
    n = len(corpus)
    assert corpus.features.shape == (n, 6)
    for column in (corpus.costs, corpus.iterations, corpus.gpus,
                   corpus.run_index):
        assert column.shape == (n,)
    assert [run.run_id for run in corpus.runs] == [run_id]
    assert set(np.unique(corpus.run_index)) == {0}
    assert corpus.gpus.min() >= 0 and corpus.gpus.max() < 4
    assert corpus.iterations.min() >= 0
    assert np.all(corpus.costs > 0)
    assert corpus.duplicates == [] and corpus.empty_runs == []


def test_harvest_dedups_identical_fingerprints(registry, gum_result):
    first = _record(registry, gum_result)
    second = _record(registry, gum_result)
    corpus = harvest(registry)
    # the virtual clock is deterministic: same fingerprint means a
    # byte-identical ledger, so the second run must not double-weight
    assert [run.run_id for run in corpus.runs] == [first]
    assert corpus.duplicates == [
        {"run_id": second, "duplicate_of": first}
    ]


def test_harvest_pools_but_never_merges_mixed_fingerprints(
    registry, gum_result, pr_result
):
    bfs_id = _record(registry, gum_result)
    pr_id = _record(registry, pr_result, algorithm="pr")
    corpus = harvest(registry)
    # two incommensurable workloads: both harvested, each row still
    # attributable to its own run — dedup must not have merged them
    assert [run.run_id for run in corpus.runs] == [bfs_id, pr_id]
    assert set(np.unique(corpus.run_index)) == {0, 1}
    per_run = [int((corpus.run_index == i).sum()) for i in (0, 1)]
    assert per_run == [run.samples for run in corpus.runs]
    assert corpus.duplicates == []


def test_harvest_skips_unledgered_runs(registry, skewed_graph,
                                       source, gum_result):
    bsp = BSPEngine(dgx1(4)).run(
        skewed_graph, random_partition(skewed_graph, 4, seed=0),
        "bfs", source=source,
    )
    bsp_id = _record(registry, bsp)
    gum_id = _record(registry, gum_result, cost_model="default2")
    corpus = harvest(registry)
    assert corpus.empty_runs == [bsp_id]
    assert [run.run_id for run in corpus.runs] == [gum_id]


def test_harvest_with_nothing_usable_raises(registry, skewed_graph,
                                            source):
    bsp = BSPEngine(dgx1(4)).run(
        skewed_graph, random_partition(skewed_graph, 4, seed=0),
        "bfs", source=source,
    )
    _record(registry, bsp)
    with pytest.raises(CostModelError, match="no harvestable runs"):
        harvest(registry)


def test_harvest_explicit_refs(registry, gum_result):
    run_id = _record(registry, gum_result)
    corpus = harvest(registry, refs=[run_id])
    assert [run.run_id for run in corpus.runs] == [run_id]
    assert corpus.runs[0].model == "default"
    assert corpus.runs[0].workload["algorithm"] == "bfs"


def test_harvest_no_amortize_run(registry, skewed_graph, source,
                                 gum_result):
    raw = repro.run(skewed_graph, "bfs", num_gpus=4, source=source,
                    gum_config=GumConfig(amortize=False))
    raw_id = _record(registry, raw, amortize=False)
    amortized_id = _record(registry, gum_result)
    corpus = harvest(registry)
    # amortize joins the fingerprint: the two runs are distinct
    # workloads and both contribute samples
    assert [run.run_id for run in corpus.runs] == [raw_id,
                                                   amortized_id]
    assert corpus.runs[0].samples > 0


def test_harvest_chaos_evicted_worker_run(registry, skewed_graph,
                                          source):
    chaos = ChaosController(ChaosScenario(
        faults=(FaultSpec("kill_worker", 1, {"worker": 2}),), seed=0,
    ))
    result = repro.run(skewed_graph, "bfs", num_gpus=4, source=source,
                       chaos=chaos)
    assert result.chaos["faults_injected"] >= 1
    run_id = _record(registry, result, chaos="kill-worker")
    corpus = harvest(registry)
    # eviction mid-run must not corrupt the sample stream: every
    # surviving row still names a valid GPU and a positive cost
    assert [run.run_id for run in corpus.runs] == [run_id]
    assert len(corpus) > 0
    assert corpus.gpus.max() < 4
    assert np.all(corpus.costs > 0)


# ----------------------------------------------------------------------
# Candidate fitting
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def own_corpus(tmp_path_factory, pr_result):
    registry = RunRegistry(tmp_path_factory.mktemp("reg") / "runs")
    _record(registry, pr_result, algorithm="pr")
    return harvest(registry)


def test_fit_candidates_scores_all_families(own_corpus):
    outcome = fit_candidates(own_corpus, folds=3, seed=0)
    assert set(outcome.candidates) == set(CANDIDATE_FAMILIES)
    for report in outcome.candidates.values():
        assert len(report.fold_rmsre) == 3
        assert report.cv_rmsre == pytest.approx(
            np.mean(report.fold_rmsre)
        )
    assert outcome.baseline.family == "shipped-polynomial"
    assert len(outcome.baseline.fold_rmsre) == 3
    # the report names exactly which shipped default was beaten
    assert outcome.report()["baseline"]["digest"] == \
        pretrained_default().artifact["digest"]
    assert "digest" not in outcome.report()["candidates"]["tree"]
    assert outcome.family in CANDIDATE_FAMILIES
    # the winner is the argmin over held-out scores
    assert outcome.holdout_rmsre == min(
        r.cv_rmsre for r in outcome.candidates.values()
    )
    json.dumps(outcome.report())  # the --report payload is pure JSON


def test_fit_single_family_with_fractional_holdout(own_corpus):
    outcome = fit_candidates(own_corpus, model="tree",
                             holdout_frac=0.25, seed=0)
    assert list(outcome.candidates) == ["tree"]
    assert outcome.folds == 1
    assert len(outcome.candidates["tree"].fold_rmsre) == 1
    assert outcome.holdout_frac == 0.25


def test_fit_beats_shipped_in_sample(own_corpus):
    # the tree can memorize its own run's ledger: its train RMSRE
    # must undercut the shipped polynomial scored on the same rows
    outcome = fit_candidates(own_corpus, model="tree", folds=3)
    shipped = rmsre(
        pretrained_default().predict(own_corpus.features),
        own_corpus.costs,
    )
    assert outcome.train_rmsre < shipped


def test_fit_is_deterministic_given_seed(own_corpus):
    a = fit_candidates(own_corpus, model="tree", folds=3, seed=7)
    b = fit_candidates(own_corpus, model="tree", folds=3, seed=7)
    assert a.candidates["tree"].fold_rmsre == \
        b.candidates["tree"].fold_rmsre


def test_fit_knob_validation(own_corpus):
    with pytest.raises(CostModelError, match="holdout fraction"):
        fit_candidates(own_corpus, holdout_frac=1.5)
    with pytest.raises(CostModelError, match="folds"):
        fit_candidates(own_corpus, folds=1)
    with pytest.raises(CostModelError, match="unknown model family"):
        fit_candidates(own_corpus, model="perceptron")


# ----------------------------------------------------------------------
# Facade integration
# ----------------------------------------------------------------------
def test_run_accepts_artifact_path(skewed_graph, source, training,
                                   tmp_path):
    X, y = training
    model = MODEL_FAMILIES["tree"]()
    model.fit(X, y)
    path = tmp_path / "model.json"
    artifact = save_artifact(model, path)
    result = repro.run(skewed_graph, "bfs", num_gpus=4, source=source,
                       cost_model=str(path))
    # the ledger names the stable content digest, not the local path
    assert result.ledger.model == artifact_label(artifact)


def test_cost_model_rejected_outside_gum(skewed_graph, source):
    with pytest.raises(EngineError, match="gum"):
        repro.run(skewed_graph, "bfs", engine="bsp", num_gpus=4,
                  source=source, cost_model="uniform")


def test_unknown_cost_model_spec_is_engine_error(skewed_graph, source):
    with pytest.raises(EngineError, match="expected 'default'"):
        repro.run(skewed_graph, "bfs", num_gpus=4, source=source,
                  cost_model="no-such-model")
