"""Integration tests for the GUM engine and arbitrator."""

import numpy as np
import pytest

from repro.algorithms.validate import reference_bfs, reference_sssp
from repro.core import GumConfig, GumEngine, GumScheduler
from repro.errors import EngineError
from repro.graph import with_random_weights
from repro.hardware import dgx1
from repro.partition import random_partition, segmented_partition
from repro.runtime import BSPEngine


def gum(config=None, gpus=8):
    return GumEngine(dgx1(gpus), config=config)


# ----------------------------------------------------------------------
# Semantics: stealing never changes answers (metamorphic)
# ----------------------------------------------------------------------
def test_gum_bfs_correct(skewed_graph, skewed_partition, source,
                         oracle_config):
    result = gum(oracle_config).run(
        skewed_graph, skewed_partition, "bfs", source=source
    )
    assert result.converged
    assert np.allclose(result.values, reference_bfs(skewed_graph, source))


def test_gum_sssp_matches_static_engine(skewed_weighted, source,
                                        oracle_config):
    partition = random_partition(skewed_weighted, 8, seed=0)
    stealing = gum(oracle_config).run(
        skewed_weighted, partition, "sssp", source=source
    )
    static = BSPEngine(dgx1(8)).run(
        skewed_weighted, partition, "sssp", source=source
    )
    assert np.array_equal(stealing.values, static.values)
    assert stealing.num_iterations == static.num_iterations


@pytest.mark.parametrize("algorithm", ["bfs", "sssp", "wcc", "pr"])
def test_all_switches_preserve_semantics(algorithm, skewed_weighted,
                                         skewed_symmetric, source):
    graph = skewed_symmetric if algorithm == "wcc" else skewed_weighted
    params = {"source": source} if algorithm in ("bfs", "sssp") else {}
    partition = random_partition(graph, 8, seed=0)
    baseline = None
    for fsteal in (False, True):
        for osteal in (False, True):
            config = GumConfig(
                fsteal=fsteal, osteal=osteal, cost_model="oracle",
            )
            result = gum(config).run(graph, partition, algorithm,
                                     **params)
            if baseline is None:
                baseline = result.values
            assert np.allclose(result.values, baseline)


# ----------------------------------------------------------------------
# DLB: FSteal reduces stall on skewed partitions
# ----------------------------------------------------------------------
def test_fsteal_reduces_stall(skewed_weighted, source):
    # a segmented partition of a skewed graph concentrates hubs
    partition = segmented_partition(skewed_weighted, 8)
    no_steal = GumConfig(fsteal=False, osteal=False, cost_model="oracle")
    steal = GumConfig(fsteal=True, osteal=False, cost_model="oracle")
    before = gum(no_steal).run(skewed_weighted, partition, "sssp",
                               source=source)
    after = gum(steal).run(skewed_weighted, partition, "sssp",
                           source=source)
    assert after.stall_fraction() < before.stall_fraction()
    assert after.total_seconds < before.total_seconds
    assert any(r.fsteal_applied for r in after.iterations)
    assert sum(r.stolen_edges for r in after.iterations) > 0


# ----------------------------------------------------------------------
# LT: OSteal folds the group on long-tail workloads
# ----------------------------------------------------------------------
def test_osteal_folds_on_long_tail(road_graph, oracle_config):
    weighted = with_random_weights(road_graph, seed=1)
    partition = random_partition(weighted, 8, seed=0)
    result = gum(oracle_config).run(weighted, partition, "sssp", source=0)
    sizes = result.group_size_series()
    assert min(sizes) < 8  # the group folded at least once
    no_osteal = GumConfig(osteal=False, cost_model="oracle")
    flat = gum(no_osteal).run(weighted, partition, "sssp", source=0)
    assert result.breakdown.sync < flat.breakdown.sync
    assert result.total_seconds < flat.total_seconds
    assert np.array_equal(result.values, flat.values)


def test_osteal_regrows_when_work_returns():
    # "fuse and bomb": a long path (tiny iterations -> fold) leading
    # into a dense random blob (explosion -> regrow)
    from repro.graph import erdos_renyi, from_edge_arrays

    fuse_len = 60
    blob = erdos_renyi(600, 40_000, seed=0)
    blob_src, blob_dst = blob.edge_array()
    path = np.arange(fuse_len, dtype=np.int64)
    src = np.concatenate([path[:-1], [fuse_len - 1],
                          blob_src + fuse_len])
    dst = np.concatenate([path[1:], [fuse_len],
                          blob_dst + fuse_len])
    graph = from_edge_arrays(src, dst, name="fusebomb")
    partition = random_partition(graph, 8, seed=0)
    config = GumConfig(cost_model="oracle", osteal_cooldown=2)
    result = gum(config).run(graph, partition, "bfs", source=0)
    sizes = result.group_size_series()
    assert min(sizes[:fuse_len]) < 8  # folded during the fuse
    assert max(sizes[fuse_len - 10:]) == 8  # regrew for the blob
    assert result.converged


# ----------------------------------------------------------------------
# Arbitrator mechanics
# ----------------------------------------------------------------------
def test_thresholds_gate_fsteal(skewed_weighted, source):
    partition = segmented_partition(skewed_weighted, 8)
    never = GumConfig(
        fsteal=True, osteal=False, cost_model="oracle",
        t1_min_edges=10**9,
    )
    result = gum(never).run(skewed_weighted, partition, "sssp",
                            source=source)
    assert not any(r.fsteal_applied for r in result.iterations)


def test_overhead_is_modeled_host_time_reported(skewed_weighted, source):
    """Decision latency is always charged from the deterministic model;
    the host time it really took rides beside it, never in virtual time."""
    partition = segmented_partition(skewed_weighted, 8)
    result = gum(GumConfig(cost_model="oracle")).run(
        skewed_weighted, partition, "sssp", source=source
    )
    assert result.breakdown.overhead > 0
    assert result.real_decision_seconds > 0
    with pytest.raises(TypeError):
        GumConfig(overhead_mode="measured")


def test_modeled_overhead_is_deterministic(skewed_weighted, source):
    partition = segmented_partition(skewed_weighted, 8)
    config = GumConfig(cost_model="oracle")
    a = gum(config).run(skewed_weighted, partition, "sssp", source=source)
    b = gum(config).run(skewed_weighted, partition, "sssp", source=source)
    assert a.total_seconds == b.total_seconds


def test_scheduler_requires_begin_run(skewed_partition):
    scheduler = GumScheduler(GumConfig(cost_model="oracle"))
    with pytest.raises(EngineError, match="begin_run"):
        scheduler.plan(0, [], np.zeros(8, dtype=np.int64), None)


def test_config_validation():
    with pytest.raises(EngineError, match="cost model"):
        GumScheduler(GumConfig(cost_model="magic"))


def test_hub_cache_reduces_remote_cost(skewed_weighted, source):
    partition = segmented_partition(skewed_weighted, 8)
    with_hub = GumConfig(cost_model="oracle", hub_cache=True,
                         t4_hub_in_degree=8)
    without = GumConfig(cost_model="oracle", hub_cache=False)
    cached = gum(with_hub).run(skewed_weighted, partition, "sssp",
                               source=source)
    plain = gum(without).run(skewed_weighted, partition, "sssp",
                             source=source)
    # same semantics, no more total time with the cache
    assert np.array_equal(cached.values, plain.values)
    assert cached.total_seconds <= plain.total_seconds + 1e-9


def test_p_estimate_converges(skewed_weighted, source, topology8):
    from repro.hardware import TimingModel

    partition = random_partition(skewed_weighted, 8, seed=0)
    scheduler = GumScheduler(GumConfig(cost_model="oracle"))
    engine = BSPEngine(topology8, scheduler=scheduler, name="gum")
    engine.run(skewed_weighted, partition, "sssp", source=source)
    timing = TimingModel(topology8)
    true_p = timing.sync.per_worker_us * 1e-6
    estimate = scheduler._state.p_estimate
    # the estimate includes the amortized barrier; stays in the ballpark
    assert 0.5 * true_p < estimate < 3.0 * true_p
