"""Unit tests for the Groute (asynchronous ring) baseline model."""

import numpy as np
import pytest

from repro.algorithms.validate import (
    reference_bfs,
    reference_pagerank,
    reference_sssp,
    reference_wcc,
)
from repro.baselines import GrouteEngine
from repro.errors import EngineError
from repro.graph import road_network, symmetrize, with_random_weights
from repro.hardware import dgx1, single_gpu
from repro.partition import random_partition


def test_bfs_correct(skewed_graph, skewed_partition, source):
    result = GrouteEngine(dgx1(8)).run(
        skewed_graph, skewed_partition, "bfs", source=source
    )
    assert result.converged
    assert np.allclose(result.values, reference_bfs(skewed_graph, source))
    assert result.engine == "groute"


def test_sssp_correct(skewed_weighted, source):
    partition = random_partition(skewed_weighted, 8, seed=0)
    result = GrouteEngine(dgx1(8)).run(
        skewed_weighted, partition, "sssp", source=source
    )
    assert np.allclose(result.values,
                       reference_sssp(skewed_weighted, source))


def test_wcc_correct(skewed_symmetric):
    partition = random_partition(skewed_symmetric, 8, seed=0)
    result = GrouteEngine(dgx1(8)).run(skewed_symmetric, partition, "wcc")
    assert np.allclose(result.values, reference_wcc(skewed_symmetric))


def test_pr_correct_via_sync_path(skewed_graph, skewed_partition):
    result = GrouteEngine(dgx1(8)).run(
        skewed_graph, skewed_partition, "pr", tol=1e-10
    )
    ref = reference_pagerank(skewed_graph, tol=1e-10)
    assert np.abs(result.values - ref).max() < 1e-8


def test_pr_pays_extra_work(skewed_graph, skewed_partition):
    cheap = GrouteEngine(dgx1(8), pr_extra_work=1.0).run(
        skewed_graph, skewed_partition, "pr", max_rounds=5
    )
    costly = GrouteEngine(dgx1(8), pr_extra_work=3.0).run(
        skewed_graph, skewed_partition, "pr", max_rounds=5
    )
    assert costly.breakdown.compute > 2.0 * cheap.breakdown.compute
    assert np.allclose(cheap.values, costly.values)


def test_async_converges_in_fewer_rounds(road_graph):
    from repro.baselines import GunrockEngine

    partition = random_partition(road_graph, 8, seed=0)
    groute = GrouteEngine(dgx1(8)).run(road_graph, partition, "wcc")
    bsp = GunrockEngine(dgx1(8)).run(road_graph, partition, "wcc")
    assert groute.num_iterations < bsp.num_iterations
    assert np.allclose(groute.values, bsp.values)


def test_ring_selection(topology8):
    engine = GrouteEngine(topology8)
    ring = engine.ring
    assert sorted(ring) == list(range(8))
    lanes = topology8.lane_matrix
    for idx in range(8):
        assert lanes[ring[idx], ring[(idx + 1) % 8]] > 0


def test_odd_gpu_count_penalized(skewed_weighted, source):
    # 5 GPUs cannot form an NVLink ring: some hops fall back to PCIe
    five = GrouteEngine(dgx1(5))
    assert dgx1(5).find_ring() is None
    from repro.hardware import PCIE_GBPS

    assert five._ring_bandwidth.min() == PCIE_GBPS


def test_single_gpu_few_rounds(skewed_graph, source):
    partition = random_partition(skewed_graph, 1, seed=0)
    result = GrouteEngine(single_gpu()).run(
        skewed_graph, partition, "bfs", source=source
    )
    # local fixed point: the whole BFS completes in one round
    assert result.num_iterations == 1
    assert np.allclose(result.values, reference_bfs(skewed_graph, source))


def test_substep_cap_applies_to_weighted_only():
    graph = road_network(4, 60, seed=1)
    weighted = with_random_weights(graph, seed=2)
    partition = random_partition(graph, 4, seed=0)
    wpartition = random_partition(weighted, 4, seed=0)
    engine = GrouteEngine(dgx1(4), local_substeps=2)
    unweighted_rounds = engine.run(graph, partition, "bfs",
                                   source=0).num_iterations
    weighted_rounds = engine.run(weighted, wpartition, "sssp",
                                 source=0).num_iterations
    # BFS runs to local fixed points (uncapped); SSSP is capped and
    # needs at least as many rounds
    assert weighted_rounds >= unweighted_rounds


def test_partition_mismatch_rejected(skewed_graph):
    partition = random_partition(skewed_graph, 4, seed=0)
    with pytest.raises(EngineError):
        GrouteEngine(dgx1(8)).run(skewed_graph, partition, "bfs", source=0)


def test_breakdown_populated(skewed_weighted, source):
    partition = random_partition(skewed_weighted, 8, seed=0)
    result = GrouteEngine(dgx1(8)).run(
        skewed_weighted, partition, "sssp", source=source
    )
    assert result.breakdown.compute > 0
    assert result.breakdown.sync > 0
    assert result.total_seconds == pytest.approx(
        sum(r.wall_seconds for r in result.iterations)
    )


def test_ring_load_pinned_on_cf_wcc():
    """The ring's per-link load is a histogram over (source, destination)
    ring-position pairs; this cell's virtual time pins it to what adding
    one message at a time produced."""
    import repro
    from repro.bench.workloads import prepare_graph

    result = repro.run(prepare_graph("CF", "wcc"), "wcc", engine="groute",
                       num_gpus=8, seed=0)
    assert result.total_ms == 8765.087123214358
    assert result.num_iterations == 4


@pytest.mark.parametrize("algorithm", ["bfs", "pr"])
def test_observability_self_measurement(skewed_graph, skewed_partition,
                                        source, algorithm):
    """Both Groute paths report the host-clock self-measurement every
    engine's run envelope takes: a wall time always, observability
    seconds only when an observer is attached."""
    from repro.obs import InMemorySink, MetricsRegistry, Tracer

    params = {"source": source} if algorithm == "bfs" else {}
    silent = GrouteEngine(dgx1(8)).run(
        skewed_graph, skewed_partition, algorithm, **params
    )
    assert silent.run_wall_seconds > 0.0
    assert silent.obs_seconds == 0.0
    assert silent.obs_overhead_pct() == 0.0

    traced = GrouteEngine(
        dgx1(8), tracer=Tracer(sinks=[InMemorySink()]),
        metrics=MetricsRegistry(),
    ).run(skewed_graph, skewed_partition, algorithm, **params)
    assert traced.run_wall_seconds > 0.0
    assert traced.obs_seconds > 0.0
    assert traced.obs_overhead_pct() is not None
    assert traced.total_ms == silent.total_ms
