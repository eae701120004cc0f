"""Unit tests for cost-model training, inference and resolution."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cli import main as cli_main
from repro.core import (
    MODEL_FAMILIES,
    DecisionTreeModel,
    KernelRidgeModel,
    LinearSGDModel,
    OracleCostModel,
    PolynomialSGDModel,
    UniformCostModel,
    collect_training_data,
    rmsre,
)
from repro.core import costmodel, costmodel_fit
from repro.core.costmodel import (
    DEFAULT_ARTIFACT,
    COSTMODEL_SCHEMA,
    _polynomial_expand,
    artifact_label,
    load_artifact,
    model_label,
    pretrained_default,
    resolve_cost_model,
    save_artifact,
)
from repro.errors import CostModelError, EngineError
from repro.graph import rmat, road_network, web_graph
from repro.graph.features import FrontierFeatures
from repro.runs import RunRegistry


@pytest.fixture(scope="module")
def training_set():
    graphs = [
        rmat(8, 8, seed=1),
        web_graph(800, 8, seed=2),
        road_network(8, 40, seed=3),
    ]
    return collect_training_data(graphs, algorithms=("bfs", "sssp"),
                                 num_fragments=4, seed=0)


def test_rmsre():
    actual = np.array([1.0, 2.0, 4.0])
    assert rmsre(actual, actual) == 0.0
    assert rmsre(actual * 1.1, actual) == pytest.approx(0.1)
    with pytest.raises(CostModelError):
        rmsre(np.array([]), np.array([]))
    with pytest.raises(CostModelError):
        rmsre(np.array([1.0]), np.array([0.0]))


def test_polynomial_expand_counts():
    x = np.random.default_rng(0).random((5, 3))
    expanded = _polynomial_expand(x, 2)
    # 1 + 3 linear + 6 quadratic (with cross terms)
    assert expanded.shape == (5, 10)
    assert np.allclose(expanded[:, 0], 1.0)


def test_collect_training_data_shapes(training_set):
    features, costs = training_set
    assert features.ndim == 2 and features.shape[1] == 6
    assert costs.shape == (features.shape[0],)
    assert np.all(costs > 0)
    assert features.shape[0] > 50


@pytest.mark.parametrize("family", sorted(MODEL_FAMILIES))
def test_families_fit_and_predict(family, training_set):
    features, costs = training_set
    model = MODEL_FAMILIES[family]()
    report = model.fit(features, costs)
    assert report.model == model.name
    assert report.train_seconds >= 0
    predictions = model.predict(features)
    assert predictions.shape == costs.shape
    assert np.all(predictions > 0)
    assert report.train_rmsre == pytest.approx(
        rmsre(predictions, costs)
    )


@pytest.mark.parametrize("family", sorted(MODEL_FAMILIES))
def test_families_beat_uniform(family, training_set):
    features, costs = training_set
    model = MODEL_FAMILIES[family]()
    model.fit(features, costs)
    uniform = UniformCostModel()
    uniform.fit(features, costs)
    assert rmsre(model.predict(features), costs) < rmsre(
        uniform.predict(features), costs
    )


def test_polynomial_beats_linear(training_set):
    features, costs = training_set
    poly = PolynomialSGDModel()
    linear = LinearSGDModel()
    poly_report = poly.fit(features, costs)
    linear_report = linear.fit(features, costs)
    assert poly_report.train_rmsre < linear_report.train_rmsre


def test_generalization(training_set):
    features, costs = training_set
    rng = np.random.default_rng(0)
    order = rng.permutation(costs.size)
    split = int(0.8 * costs.size)
    train, test = order[:split], order[split:]
    model = PolynomialSGDModel()
    model.fit(features[train], costs[train])
    test_error = rmsre(model.predict(features[test]), costs[test])
    uniform = UniformCostModel()
    uniform.fit(features[train], costs[train])
    uniform_error = rmsre(uniform.predict(features[test]), costs[test])
    # generalizes (held-out split), not just memorizes: better than the
    # constant predictor even on this ~300-sample corpus, and close to
    # its own training error (no runaway overfit, unlike exact WLS on
    # 210 parameters would be)
    assert test_error < uniform_error
    train_error = rmsre(model.predict(features[train]), costs[train])
    assert test_error < 2.0 * train_error


def test_predict_before_fit_raises():
    for model in (PolynomialSGDModel(), DecisionTreeModel(),
                  KernelRidgeModel()):
        with pytest.raises(CostModelError, match="before fit"):
            model.predict(np.zeros((1, 6)))


def test_fit_input_validation():
    model = PolynomialSGDModel()
    with pytest.raises(CostModelError):
        model.fit(np.zeros((0, 6)), np.zeros(0))
    with pytest.raises(CostModelError, match="positive"):
        model.fit(np.zeros((2, 6)), np.array([1.0, 0.0]))
    with pytest.raises(CostModelError, match="degree"):
        PolynomialSGDModel(degree=0)
    with pytest.raises(CostModelError):
        LinearSGDModel(degree=3)


def test_oracle_matches_device_model():
    oracle = OracleCostModel()
    features = FrontierFeatures(
        avg_in_degree=5.0, avg_out_degree=4.0, in_degree_range=10.0,
        out_degree_range=12.0, gini=0.4, entropy=0.7, size=1,
        total_edges=1,
    )
    direct = oracle.edge_cost_seconds(features)
    via_matrix = oracle.predict(features.vector()[None, :])[0]
    assert direct == pytest.approx(via_matrix)


def test_uniform_fits_geometric_mean(training_set):
    features, costs = training_set
    model = UniformCostModel()
    model.fit(features, costs)
    expected = float(np.exp(np.mean(np.log(costs))))
    assert model.predict(features[:3])[0] == pytest.approx(expected)


def test_edge_cost_seconds_convenience(training_set):
    features, costs = training_set
    model = DecisionTreeModel()
    model.fit(features, costs)
    sample = FrontierFeatures(
        avg_in_degree=features[0, 0], avg_out_degree=features[0, 1],
        in_degree_range=features[0, 2], out_degree_range=features[0, 3],
        gini=features[0, 4], entropy=features[0, 5], size=5,
        total_edges=20,
    )
    assert model.edge_cost_seconds(sample) == pytest.approx(
        model.predict(features[0][None, :])[0]
    )


def test_training_is_deterministic(training_set):
    features, costs = training_set
    a = PolynomialSGDModel(seed=7)
    b = PolynomialSGDModel(seed=7)
    a.fit(features, costs)
    b.fit(features, costs)
    assert np.allclose(a.predict(features), b.predict(features))


def test_kernel_ridge_constant_feature_corpus():
    """All-duplicate training rows must not poison gamma with NaN.

    Regression test: the median-heuristic bandwidth divided by the
    median pairwise distance, which is 0 when every row is identical,
    so gamma became inf/NaN and every prediction came out NaN.
    """
    rows = np.tile(np.array([4.0, 2.0, 1.0, 8.0, 3.0, 5.0]), (32, 1))
    costs = np.full(32, 2.5e-9)
    model = KernelRidgeModel()
    model.fit(rows, costs)
    assert np.isfinite(model._gamma) and model._gamma > 0
    prediction = model.predict(rows[:4])
    assert np.all(np.isfinite(prediction))
    assert np.all(prediction > 0)
    # the model should reproduce the constant corpus cost closely
    assert prediction == pytest.approx(2.5e-9, rel=0.2)


def test_tree_predict_batch_matches_single_rows(training_set):
    features, costs = training_set
    model = DecisionTreeModel()
    model.fit(features, costs)
    batch = model.predict(features[:64])
    singles = np.array([
        float(model.predict(features[i:i + 1])[0]) for i in range(64)
    ])
    assert np.array_equal(batch, singles)


# ----------------------------------------------------------------------
# Obtaining a model: the shipped default, one resolver, one label
# ----------------------------------------------------------------------
def test_shipped_default_is_a_digest_checked_artifact():
    model = pretrained_default()
    assert model is pretrained_default()  # cached
    assert model.artifact["schema"] == COSTMODEL_SCHEMA
    assert model.artifact["family"] == "polynomial"
    # named by role: a default-model run's ledger and fingerprint say
    # "default", not the artifact digest
    assert model_label(model) == "default"


def test_tampered_copy_of_the_shipped_default_is_rejected(tmp_path):
    artifact = json.loads(DEFAULT_ARTIFACT.read_text())
    artifact["parameters"]["weights"][3] += 1e-9
    path = tmp_path / "default_costmodel.json"
    path.write_text(json.dumps(artifact))
    with pytest.raises(CostModelError, match="digest mismatch"):
        load_artifact(path)


def test_training_is_unreachable_from_the_run_time_path(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("the run-time path must not train")

    monkeypatch.setattr(costmodel_fit, "collect_training_data",
                        no_training)
    monkeypatch.setattr(costmodel_fit, "train_default", no_training)
    pretrained_default.cache_clear()  # a cold process, not a warm cache
    result = repro.run(repro.datasets.load("TX"), "bfs", num_gpus=4)
    assert result.ledger.model == "default"
    reference = (Path(__file__).resolve().parents[2]
                 / "benchmarks" / "reference" / "tx-bfs-4gpu")
    assert cli_main(["replay", str(reference),
                     "--cost-model", "default"]) == 0


def test_resolver_names_and_instances():
    assert resolve_cost_model("default") is pretrained_default()
    assert isinstance(resolve_cost_model("oracle"), OracleCostModel)
    assert isinstance(resolve_cost_model("uniform"), UniformCostModel)
    instance = DecisionTreeModel()
    assert resolve_cost_model(instance) is instance
    assert [model_label(resolve_cost_model(name))
            for name in ("default", "oracle", "uniform")] == \
        ["default", "oracle", "uniform"]


@pytest.mark.parametrize("resolve", [resolve_cost_model])
def test_one_error_for_one_mistake(resolve, tmp_path):
    # a path-looking operand that does not exist says so ...
    for operand in (str(tmp_path / "model.jsno"), "model.jsno"):
        with pytest.raises(CostModelError, match="cannot read"):
            resolve(operand)
    with pytest.raises(CostModelError, match="cannot read"):
        resolve(str(tmp_path))  # a directory
    # ... and a bare unknown name lists the accepted ones
    with pytest.raises(EngineError, match="expected 'default'"):
        resolve("magic")


def test_cli_record_loads_the_artifact_once(training_set, tmp_path,
                                            monkeypatch):
    features, costs = training_set
    model = DecisionTreeModel()
    model.fit(features, costs)
    path = tmp_path / "model.json"
    artifact = save_artifact(model, path)
    loads = []
    real_load = costmodel.load_artifact
    monkeypatch.setattr(
        costmodel, "load_artifact",
        lambda p: loads.append(p) or real_load(p),
    )
    assert cli_main([
        "run", "--graph", "TX", "--algorithm", "bfs", "--gpus", "2",
        "--cost-model", str(path), "--record",
        "--runs-dir", str(tmp_path / "runs"),
    ]) == 0
    assert loads == [str(path)]
    manifest = RunRegistry(tmp_path / "runs").load_manifest("latest")
    assert manifest["fingerprint"]["workload"]["cost_model"] == \
        artifact_label(artifact)


# ----------------------------------------------------------------------
# one decision, one batch: edge_costs_seconds == one-at-a-time calls
# ----------------------------------------------------------------------
def _decision_features(seed: int = 0, fragments: int = 8):
    """Table-I features of one owner-split frontier (live fragments)."""
    from repro.graph.features import frontier_features

    rng = np.random.default_rng(seed)
    graph = rmat(9, 8, seed=seed)
    vertices = np.flatnonzero(rng.random(graph.num_vertices) < 0.4)
    owners = rng.integers(0, fragments, size=vertices.size)
    order = np.argsort(owners, kind="stable")
    boundaries = np.searchsorted(owners[order], np.arange(fragments + 1))
    return [
        f for f in frontier_features(graph, vertices[order], boundaries)
        if f.total_edges
    ]


def test_batched_edge_costs_equal_single_row_for_every_resolvable_model(
    training_set, tmp_path
):
    # everything resolve_cost_model can return: the three names, and
    # an artifact of each family this module defines
    models = {
        name: resolve_cost_model(name)
        for name in ("default", "oracle", "uniform")
    }
    for family, factory in MODEL_FAMILIES.items():
        model = factory()
        model.fit(*training_set)
        save_artifact(model, tmp_path / f"{family}.json")
        models[family] = resolve_cost_model(str(tmp_path / f"{family}.json"))
    features = _decision_features(0) + _decision_features(1, fragments=3)
    assert len(features) > 8
    for label, model in models.items():
        batched = model.edge_costs_seconds(features)
        single = [model.edge_cost_seconds(f) for f in features]
        assert batched == single, label  # floats compared bit for bit
        assert all(type(value) is float for value in batched), label
        assert model.edge_costs_seconds([]) == [], label


def test_batch_takes_per_row_dots_because_matvec_rounds_differently():
    """Why ``PolynomialSGDModel`` reduces each row along its own axis.

    A prediction is one elementwise product with the folded weights,
    summed along the row: the pairwise order depends on the row length
    only, so a block's rows are the bits single rows give.
    ``(F, N) @ w`` runs a BLAS matrix-vector kernel whose summation
    order is free to differ with the batch and the CPU, which would
    move FSteal's coefficients and the ledger's RMSRE in the last bits.
    """
    model = pretrained_default()
    rows = np.random.default_rng(4).uniform(0.0, 300.0, size=(512, 6))
    basis = model._basis(rows)
    weights = model._folded_weights()
    single = [float(np.add.reduce(model._basis(rows[i:i + 1]) * weights,
                                  axis=1)[0]) for i in range(512)]
    per_row = np.add.reduce(basis * weights, axis=1).tolist()
    assert per_row == single
    # the batched product agrees numerically — it is only not the same
    # bits, so it cannot stand in for the audit's predictions
    np.testing.assert_allclose(basis @ weights, single,
                               rtol=1e-7, atol=1e-7)


def test_folded_weights_predict_the_standardized_design():
    """Folding the design standardizer into the weights is the same
    model: ``w . (phi - mu) / sigma`` up to rounding."""
    model = pretrained_default()
    rows = np.random.default_rng(5).uniform(0.0, 300.0, size=(64, 6))
    basis = model._basis(rows)
    scaler = model._design_scaler
    standardized = ((basis - scaler.mean) / scaler.std) @ model._weights
    np.testing.assert_allclose(
        model.predict(rows),
        np.maximum(standardized, 0.01) / 1e9, rtol=1e-9,
    )


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_batch_prediction_is_single_rows_at_every_batch_size(size, seed):
    """Batches of 1-600 rows (across the 512-row block) predict every
    row bit for bit as a one-row call does."""
    model = pretrained_default()
    rng = np.random.default_rng(seed)
    rows = np.column_stack([
        rng.gamma(1.0, 8.0, size), rng.gamma(1.0, 8.0, size),
        rng.gamma(1.0, 400.0, size), rng.gamma(1.0, 400.0, size),
        rng.random(size), rng.random(size),
    ])
    frontiers = [FrontierFeatures(*row, size=2, total_edges=2)
                 for row in rows.tolist()]
    single = [model.edge_cost_seconds(f) for f in frontiers]
    assert model.edge_costs_seconds(frontiers) == single
    assert model.predict(rows).tolist() == single


@pytest.mark.parametrize("rows", [1, 8, 128, 129])
def test_polynomial_expand_is_the_left_to_right_monomial_product(rows):
    import itertools

    matrix = np.random.default_rng(rows).normal(size=(rows, 6))
    expanded = _polynomial_expand(matrix, 3)
    column = 1
    for degree in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(
            range(6), degree
        ):
            product = np.ones(rows)
            for feature in combo:
                product = product * matrix[:, feature]
            assert np.array_equal(expanded[:, column], product), combo
            column += 1
    assert column == expanded.shape[1]
