"""Round-trip tests for persistence: binary graphs and partitions, and
cost models as ``repro-costmodel/1`` artifacts (their one format; the
per-family and digest cases live under ``tests/core``)."""

import numpy as np
import pytest

from repro.core import PolynomialSGDModel, collect_training_data
from repro.core.costmodel import load_artifact, save_artifact
from repro.errors import CostModelError, GraphError, PartitionError
from repro.graph import rmat, road_network
from repro.graph.io_npz import (
    load_graph,
    load_partition,
    save_graph,
    save_partition,
)
from repro.partition import random_partition


def test_graph_roundtrip(tmp_path, skewed_graph):
    path = tmp_path / "g.npz"
    save_graph(skewed_graph, path)
    loaded = load_graph(path)
    assert loaded.num_vertices == skewed_graph.num_vertices
    assert np.array_equal(loaded.indptr, skewed_graph.indptr)
    assert np.array_equal(loaded.indices, skewed_graph.indices)
    assert loaded.directed == skewed_graph.directed
    assert loaded.name == skewed_graph.name
    assert loaded.weights is None


def test_weighted_graph_roundtrip(tmp_path, skewed_weighted):
    path = tmp_path / "w.npz"
    save_graph(skewed_weighted, path)
    loaded = load_graph(path)
    assert np.array_equal(loaded.weights, skewed_weighted.weights)


def test_graph_bad_archive(tmp_path):
    path = tmp_path / "bogus.npz"
    np.savez(path, junk=np.zeros(3))
    with pytest.raises(GraphError, match="not a repro graph"):
        load_graph(path)


def test_partition_roundtrip(tmp_path, skewed_graph, skewed_partition):
    path = tmp_path / "p.npz"
    save_partition(skewed_partition, path)
    loaded = load_partition(path, skewed_graph)
    assert np.array_equal(loaded.owner, skewed_partition.owner)
    assert loaded.num_fragments == skewed_partition.num_fragments
    assert loaded.name == skewed_partition.name


def test_partition_wrong_graph_rejected(tmp_path, skewed_partition):
    path = tmp_path / "p.npz"
    save_partition(skewed_partition, path)
    other = rmat(6, 4, seed=0)
    with pytest.raises(PartitionError, match="vertices"):
        load_partition(path, other)


def test_partition_bad_archive(tmp_path, skewed_graph):
    path = tmp_path / "bogus.npz"
    np.savez(path, junk=np.zeros(3))
    with pytest.raises(PartitionError, match="not a repro partition"):
        load_partition(path, skewed_graph)


@pytest.fixture(scope="module")
def small_training_set():
    graphs = [rmat(8, 8, seed=1), road_network(6, 40, seed=2)]
    return collect_training_data(graphs, algorithms=("bfs",),
                                 num_fragments=4)


def test_cost_model_roundtrip(tmp_path, small_training_set):
    """A non-default hyper-parameter (the degree) survives the artifact."""
    features, costs = small_training_set
    model = PolynomialSGDModel(degree=2, epochs=30)
    model.fit(features, costs)
    path = tmp_path / "model.json"
    save_artifact(model, path)
    loaded = load_artifact(path)
    assert np.array_equal(loaded.predict(features), model.predict(features))
    assert loaded._degree == 2


def test_cost_model_save_requires_fit(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(CostModelError, match="unfitted"):
        save_artifact(PolynomialSGDModel(), path)
    assert not path.exists()


def test_cost_model_bad_archive(tmp_path):
    """An ``.npz`` (the retired binary format) is not an artifact."""
    path = tmp_path / "bogus.npz"
    np.savez(path, junk=np.zeros(3))
    with pytest.raises(CostModelError, match="bogus.npz"):
        load_artifact(path)


def test_partition_saved_with_an_int64_owner_still_loads(
        tmp_path, skewed_graph, skewed_partition):
    # the archive layout of a partition whose owner map was int64
    path = tmp_path / "wide.npz"
    owner = skewed_partition.owner.astype(np.int64)
    np.savez_compressed(
        path, format_version=np.array([1]), owner=owner,
        num_fragments=np.array([skewed_partition.num_fragments]),
        name=np.array([skewed_partition.name]),
    )
    loaded = load_partition(path, skewed_graph)
    assert loaded.owner.dtype == np.uint8
    assert np.array_equal(loaded.owner, owner)
    assert loaded.num_fragments == skewed_partition.num_fragments
