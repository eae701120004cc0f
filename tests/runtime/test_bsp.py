"""Unit and integration tests for the BSP engine."""

import numpy as np
import pytest

from repro.algorithms.validate import (
    reference_bfs,
    reference_pagerank,
    reference_sssp,
    reference_wcc,
)
from repro.errors import DegradedModeError, EngineError
from repro.graph import symmetrize
from repro.hardware import dgx1, single_gpu
from repro.partition import random_partition
from repro.runtime import BSPEngine, EngineOptions
from repro.runtime.scheduler import IterationPlan, Scheduler, realize_plan


def test_bfs_correct(skewed_graph, skewed_partition, source):
    engine = BSPEngine(dgx1(8))
    result = engine.run(skewed_graph, skewed_partition, "bfs",
                        source=source)
    assert result.converged
    assert np.allclose(result.values, reference_bfs(skewed_graph, source))


def test_sssp_correct(skewed_weighted, source):
    partition = random_partition(skewed_weighted, 8, seed=0)
    engine = BSPEngine(dgx1(8))
    result = engine.run(skewed_weighted, partition, "sssp", source=source)
    assert np.allclose(result.values,
                       reference_sssp(skewed_weighted, source))


def test_wcc_correct(skewed_symmetric):
    partition = random_partition(skewed_symmetric, 8, seed=0)
    engine = BSPEngine(dgx1(8))
    result = engine.run(skewed_symmetric, partition, "wcc")
    assert np.allclose(result.values, reference_wcc(skewed_symmetric))


def test_pr_correct(skewed_graph, skewed_partition):
    engine = BSPEngine(dgx1(8))
    result = engine.run(skewed_graph, skewed_partition, "pr", tol=1e-10)
    ref = reference_pagerank(skewed_graph, tol=1e-10)
    assert np.abs(result.values - ref).max() < 1e-8


def test_single_gpu_runs(skewed_graph, source):
    partition = random_partition(skewed_graph, 1, seed=0)
    engine = BSPEngine(single_gpu())
    result = engine.run(skewed_graph, partition, "bfs", source=source)
    assert result.converged
    assert result.num_gpus == 1
    assert result.stall_fraction() == 0.0


def test_breakdown_buckets_sum_to_wall(skewed_graph, skewed_partition,
                                       source):
    engine = BSPEngine(dgx1(8))
    result = engine.run(skewed_graph, skewed_partition, "bfs",
                        source=source)
    for record in result.iterations:
        assert record.wall_seconds == pytest.approx(
            record.breakdown.total, rel=1e-9
        )
    assert result.total_seconds == pytest.approx(
        sum(r.wall_seconds for r in result.iterations), rel=1e-9
    )


def test_busy_stall_consistency(skewed_graph, skewed_partition, source):
    engine = BSPEngine(dgx1(8))
    result = engine.run(skewed_graph, skewed_partition, "sssp",
                        source=source)
    for record in result.iterations:
        active = record.active_workers
        critical = record.busy_seconds[active].max()
        assert np.allclose(
            record.busy_seconds[active] + record.stall_seconds[active],
            critical,
        )


def test_mismatched_partition_rejected(skewed_graph):
    partition = random_partition(skewed_graph, 4, seed=0)
    engine = BSPEngine(dgx1(8))
    with pytest.raises(EngineError, match="fragments"):
        engine.run(skewed_graph, partition, "bfs", source=0)


def test_partition_for_other_graph_rejected(skewed_graph, tiny_graph):
    partition = random_partition(tiny_graph, 8, seed=0)
    engine = BSPEngine(dgx1(8))
    with pytest.raises(EngineError, match="different graph"):
        engine.run(skewed_graph, partition, "bfs", source=0)


def test_iteration_limit_marks_unconverged(road_graph):
    partition = random_partition(road_graph, 8, seed=0)
    engine = BSPEngine(dgx1(8))
    result = engine.run(road_graph, partition, "bfs", source=0,
                        max_iterations=3)
    assert not result.converged
    assert result.num_iterations == 3


def test_max_iterations_zero_runs_no_iterations(road_graph):
    """``max_iterations=0`` must mean zero, not the options default.

    Regression test: ``max_iterations or default`` treated an explicit
    0 as falsy and silently ran the full default iteration budget.
    """
    partition = random_partition(road_graph, 8, seed=0)
    engine = BSPEngine(dgx1(8))
    result = engine.run(road_graph, partition, "bfs", source=0,
                        max_iterations=0)
    assert result.num_iterations == 0
    assert not result.converged


class _DroppingScheduler(Scheduler):
    """Broken policy that drops half of every fragment's work."""

    name = "dropper"

    def plan(self, iteration, fragment_frontiers, workloads, context):
        plan = realize_plan(context, fragment_frontiers, workloads,
                            active_workers=list(range(context.num_workers)))
        plan.edges = [edges // 2 for edges in plan.edges]
        return plan


class _EmptyActiveScheduler(Scheduler):
    name = "noactive"

    def plan(self, iteration, fragment_frontiers, workloads, context):
        return IterationPlan(active_workers=[])


def test_work_conservation_enforced(skewed_graph, skewed_partition, source):
    engine = BSPEngine(dgx1(8), scheduler=_DroppingScheduler())
    with pytest.raises(EngineError, match="conserve"):
        engine.run(skewed_graph, skewed_partition, "bfs", source=source)


def _two_row_plan(owner=(0, 1), worker=(0, 1), edges=(5, 7)):
    """Fragment 0 (5 edges) on worker 0, fragment 1 (7 edges) on 1."""
    return IterationPlan(
        active_workers=[0, 1],
        owner=list(owner), worker=list(worker), edges=list(edges),
        hub_edges=[0, 0], start=[0, 0], stop=[1, 1],
    )


@pytest.mark.parametrize("columns, dead, error, message", [
    ({"worker": (0, 2)}, set(), EngineError, "chunk worker 2 out of range"),
    # a wrapped -1 would read as worker 1, which is dead here
    ({"worker": (0, -1)}, {1}, EngineError,
     "chunk worker -1 out of range"),
    ({"owner": (0, 2)}, set(), EngineError, "chunk owner 2 out of range"),
    # a wrapped -1 would land on fragment 1 and conserve the workload
    ({"owner": (0, -1)}, set(), EngineError,
     "chunk owner -1 out of range"),
    ({}, {1}, DegradedModeError,
     "iteration plan assigns work to dead worker 1"),
    ({"edges": (5, 6)}, set(), EngineError,
     "iteration plan does not conserve workload: assigned=[5, 6] "
     "expected=[5, 7]"),
], ids=["worker-high", "worker-negative", "owner-high", "owner-negative",
        "dead-worker", "not-conserving"])
def test_plan_rejections(columns, dead, error, message):
    engine = BSPEngine(dgx1(2))
    workloads = np.array([5, 7], dtype=np.int64)
    engine._validate_plan(_two_row_plan(), workloads, 2, set())  # valid
    with pytest.raises(error) as raised:
        engine._validate_plan(_two_row_plan(**columns), workloads, 2, dead)
    assert raised.type is error and str(raised.value) == message


def test_plan_needs_active_workers(skewed_graph, skewed_partition, source):
    engine = BSPEngine(dgx1(8), scheduler=_EmptyActiveScheduler())
    with pytest.raises(EngineError):
        engine.run(skewed_graph, skewed_partition, "bfs", source=source)


def test_message_aggregation_reduces_serialization(skewed_graph,
                                                   skewed_partition,
                                                   source):
    on = BSPEngine(dgx1(8), options=EngineOptions(aggregate_messages=True))
    off = BSPEngine(dgx1(8), options=EngineOptions(aggregate_messages=False))
    with_agg = on.run(skewed_graph, skewed_partition, "sssp", source=source)
    without = off.run(skewed_graph, skewed_partition, "sssp", source=source)
    assert with_agg.breakdown.serialization < without.breakdown.serialization
    # semantics unchanged
    assert np.allclose(with_agg.values, without.values)


def test_direction_optimization_reduces_bfs_work(skewed_graph,
                                                 skewed_partition, source):
    do = BSPEngine(
        dgx1(8), options=EngineOptions(direction_optimized_bfs=True)
    ).run(skewed_graph, skewed_partition, "bfs", source=source)
    push = BSPEngine(
        dgx1(8), options=EngineOptions(direction_optimized_bfs=False)
    ).run(skewed_graph, skewed_partition, "bfs", source=source)
    do_edges = sum(r.frontier_edges for r in do.iterations)
    push_edges = sum(r.frontier_edges for r in push.iterations)
    assert do_edges < push_edges
    assert np.allclose(do.values, push.values)


def test_deterministic_runs(skewed_graph, skewed_partition, source):
    engine = BSPEngine(dgx1(8))
    a = engine.run(skewed_graph, skewed_partition, "bfs", source=source)
    b = engine.run(skewed_graph, skewed_partition, "bfs", source=source)
    assert a.total_seconds == b.total_seconds
    assert np.array_equal(a.values, b.values)


def test_algorithm_instance_accepted(skewed_graph, skewed_partition,
                                     source):
    from repro.algorithms import BFS

    engine = BSPEngine(dgx1(8))
    result = engine.run(skewed_graph, skewed_partition, BFS(),
                        source=source)
    assert result.algorithm == "bfs"
