"""Unit tests for the Table-II dataset registry."""

import pytest

from repro.errors import GraphError
from repro.graph import datasets
from repro.graph.properties import degree_summary, pseudo_diameter


def test_registry_has_all_fifteen():
    assert len(datasets.DATASETS) == 15
    assert datasets.dataset_names() == list(datasets.DATASETS)


def test_domains():
    assert datasets.dataset_names("SN") == ["LJ", "OR", "SW", "TW", "CF"]
    assert datasets.dataset_names("WG") == ["U2", "AR", "IT", "U5", "WB"]
    assert datasets.dataset_names("RN") == ["TX", "CA", "GM", "USA", "EU"]


def test_load_caches():
    a = datasets.load("TX")
    b = datasets.load("TX")
    assert a is b


def test_load_unknown():
    with pytest.raises(GraphError, match="unknown dataset"):
        datasets.load("NOPE")


def test_load_many():
    graphs = datasets.load_many(["TX", "LJ"])
    assert set(graphs) == {"TX", "LJ"}
    assert graphs["TX"].name == "TX"


def test_social_graphs_are_skewed():
    graph = datasets.load("LJ")
    assert degree_summary(graph).gini > 0.5
    assert pseudo_diameter(graph) <= 12


def test_road_graphs_are_long_and_sparse():
    graph = datasets.load("TX")
    assert degree_summary(graph).avg_out_degree < 4.5
    assert pseudo_diameter(graph) > 100
    assert not graph.directed


def test_relative_size_ordering_within_domains():
    sizes = {a: datasets.load(a).num_edges for a in ("TX", "CA", "USA", "EU")}
    assert sizes["TX"] < sizes["CA"] < sizes["USA"] < sizes["EU"]
    assert datasets.load("LJ").num_edges < datasets.load("CF").num_edges


def test_spec_build_matches_load():
    spec = datasets.DATASETS["CA"]
    built = spec.build()
    assert built.num_edges == datasets.load("CA").num_edges
    assert built.name == "CA"


@pytest.mark.parametrize("scale, expected", [("1", 13), ("4", 15),
                                             ("0.25", 11)])
def test_social_rmat_scale_grows_with_repro_scale(monkeypatch, scale,
                                                  expected):
    # the R-MAT argument only: the graph itself is not built
    calls = []
    monkeypatch.setenv("REPRO_SCALE", scale)
    monkeypatch.setattr("repro.graph.generators.rmat",
                        lambda scale, **kwargs: calls.append(scale))
    datasets.DATASETS["LJ"].builder()
    assert calls == [expected]
