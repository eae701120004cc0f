"""In-core vs out-of-core: sharded graphs are bit-identical.

Out-of-core storage is a host-memory decision — *where* the CSR
arrays live — and must never leak into results. These tests run the
same workload over the in-core graph and its sharded on-disk twin
(five shards, serial and shmem backends) and require the algorithm
values, the virtual-time totals, and every per-iteration virtual wall
clock to match exactly, while the shard cache's peak residency stays
under its byte budget.
"""

import numpy as np
import pytest

import repro
from repro.graph import (
    open_graph_sharded,
    rmat,
    save_graph_sharded,
    symmetrize,
    with_random_weights,
)
from tests.backend.helpers import no_backend_threads

NUM_SHARDS = 5
RESIDENT_BYTES = 1 << 20


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    """In-core graphs plus their sharded on-disk directories."""
    root = tmp_path_factory.mktemp("sharded")
    directed = with_random_weights(rmat(13, 8, seed=7), seed=3)
    # WCC needs a symmetric input: the facade's symmetrize() pass
    # would materialize a sharded graph, so shard the symmetric form
    undirected = symmetrize(directed)
    save_graph_sharded(directed, root / "gd.shards",
                       num_shards=NUM_SHARDS)
    save_graph_sharded(undirected, root / "gs.shards",
                       num_shards=NUM_SHARDS)
    return {
        "directed": (directed, root / "gd.shards"),
        "undirected": (undirected, root / "gs.shards"),
    }


def run_pair(graphs, kind, algorithm, backend="serial", **params):
    in_core, shard_dir = graphs[kind]
    baseline = repro.run(in_core, algorithm, engine="gum", num_gpus=4,
                         backend="serial", **params)
    sharded_graph = open_graph_sharded(
        shard_dir, resident_bytes=RESIDENT_BYTES
    )
    sharded = repro.run(sharded_graph, algorithm, engine="gum",
                        num_gpus=4, backend=backend, **params)
    return baseline, sharded, sharded_graph


def assert_equivalent(baseline, sharded):
    assert np.array_equal(baseline.values, sharded.values)
    assert baseline.total_ms == sharded.total_ms  # bitwise, not approx
    assert baseline.num_iterations == sharded.num_iterations
    assert baseline.breakdown.as_dict() == sharded.breakdown.as_dict()
    for a, b in zip(baseline.iterations, sharded.iterations):
        assert a.wall_seconds == b.wall_seconds
        assert np.array_equal(a.busy_seconds, b.busy_seconds)
        assert a.active_workers == b.active_workers


@pytest.mark.parametrize("kind,algorithm,params", [
    ("directed", "bfs", {"source": 0}),
    ("directed", "sssp", {"source": 0}),
    ("undirected", "wcc", {}),
])
def test_serial_sharded_bit_identical(graphs, kind, algorithm, params):
    baseline, sharded, graph = run_pair(graphs, kind, algorithm,
                                        **params)
    assert_equivalent(baseline, sharded)
    assert graph.num_shards >= 4
    stats = sharded.backend_stats
    assert stats["backend"] == "serial"
    cache = stats["shard_cache"]
    assert cache["loads"] > 0
    assert cache["peak_resident_bytes"] <= RESIDENT_BYTES


def test_pagerank_streaming_superstep_bit_identical(graphs):
    # PR's dense round exercises the per-shard scatter accumulation
    baseline, sharded, __ = run_pair(graphs, "directed", "pr")
    assert_equivalent(baseline, sharded)


@pytest.mark.parametrize("kind,algorithm,params", [
    ("directed", "bfs", {"source": 0}),
    ("directed", "sssp", {"source": 0}),
    ("undirected", "wcc", {}),
])
def test_shmem_sharded_bit_identical(graphs, monkeypatch, kind, algorithm,
                                     params):
    from repro.backend import shmem

    opened = []
    fragment_graphs = shmem._fragment_graphs

    def recording(graph, num_fragments):
        opened.append((graph, fragment_graphs(graph, num_fragments)))
        return opened[-1][1]

    monkeypatch.setattr(shmem, "_fragment_graphs", recording)
    baseline, sharded, graph = run_pair(graphs, kind, algorithm,
                                        backend="shmem", **params)
    assert_equivalent(baseline, sharded)
    stats = sharded.backend_stats
    assert stats["backend"] == "shmem"
    assert stats["parallel_step"] is True
    # the coordinator's own cache stats ride along
    assert stats["shard_cache"]["loads"] > 0
    # the shard cache is not thread-safe: every fragment thread reads
    # its own reopening of the directory, never the coordinator's graph
    ((coordinator, per_fragment),) = opened
    assert coordinator is graph
    assert len(per_fragment) == 4
    assert all(g is not graph for g in per_fragment)
    assert len({id(g) for g in per_fragment}) == 4
    assert no_backend_threads()


def test_in_core_backend_stats_stay_none(graphs):
    in_core, __ = graphs["directed"]
    result = repro.run(in_core, "bfs", engine="gum", num_gpus=4,
                       backend="serial", source=0)
    assert result.backend_stats is None
