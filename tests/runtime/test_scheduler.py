"""Unit tests for the scheduler interface and the static policy."""

import numpy as np
import pytest

from repro.hardware import TimingModel, dgx1
from repro.partition import random_partition
from repro.runtime import Frontier, StaticScheduler
from repro.runtime.scheduler import RunContext


@pytest.fixture()
def context(skewed_graph, skewed_partition, topology8):
    return RunContext(
        graph=skewed_graph,
        partition=skewed_partition,
        timing=TimingModel(topology8),
        fragment_home=np.arange(8, dtype=np.int64),
        fragment_worker=np.arange(8, dtype=np.int64),
        algorithm_name="bfs",
    )


def make_frontiers(skewed_graph, skewed_partition, frontier):
    return frontier.split_by_owner(
        skewed_partition.owner, skewed_partition.num_fragments
    )


def test_static_plan_identity(skewed_graph, skewed_partition, context):
    frontier = Frontier(np.arange(0, 500, 7))
    fragments = make_frontiers(skewed_graph, skewed_partition, frontier)
    workloads = np.array([f.work(skewed_graph) for f in fragments])
    plan = StaticScheduler().plan(0, fragments, workloads, context)
    assert plan.active_workers == list(range(8))
    assert not plan.fsteal_applied
    assert plan.owner == plan.worker
    assert plan.edges == workloads[plan.owner].tolist()
    assert not any(plan.hub_edges)


def test_static_plan_skips_empty_fragments(skewed_graph,
                                           skewed_partition, context):
    # a frontier living entirely in one fragment
    target = skewed_partition.vertices_of(3)[:5]
    fragments = make_frontiers(
        skewed_graph, skewed_partition, Frontier(target)
    )
    workloads = np.array([f.work(skewed_graph) for f in fragments])
    plan = StaticScheduler().plan(0, fragments, workloads, context)
    owners = set(plan.owner)
    assert owners == {3} or owners == set()  # degree-0 target possible
    # everyone still synchronizes (the LT problem!)
    assert plan.active_workers == list(range(8))


def test_static_plan_respects_reassigned_ownership(
    skewed_graph, skewed_partition, context
):
    # OSteal-style: fragment 5's work now belongs to worker 2
    context.fragment_worker[5] = 2
    frontier = Frontier(skewed_partition.vertices_of(5)[:20])
    fragments = make_frontiers(skewed_graph, skewed_partition, frontier)
    workloads = np.array([f.work(skewed_graph) for f in fragments])
    plan = StaticScheduler().plan(0, fragments, workloads, context)
    assert {worker for owner, worker in zip(plan.owner, plan.worker)
            if owner == 5} == {2}


def test_static_plan_emits_pull_mode_chunks(skewed_graph,
                                            skewed_partition, context):
    # effective workloads can be nonzero for empty-frontier fragments
    fragments = [Frontier.empty() for __ in range(8)]
    workloads = np.array([10, 0, 0, 5, 0, 0, 0, 0], dtype=np.int64)
    plan = StaticScheduler().plan(0, fragments, workloads, context)
    assert set(plan.owner) == {0, 3}
    assert plan.start == plan.stop


def test_run_context_num_workers(context):
    assert context.num_workers == 8
