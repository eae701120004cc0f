"""Unit tests for the reactive (peek-and-grab) stealing baseline."""

import numpy as np
import pytest

from repro.algorithms.validate import reference_sssp
from repro.baselines import PeekStealScheduler
from repro.hardware import dgx1
from repro.partition import random_partition, segmented_partition
from repro.runtime import BSPEngine


def engine(gpus=8, **kwargs):
    return BSPEngine(
        dgx1(gpus), scheduler=PeekStealScheduler(**kwargs),
        name="peeksteal",
    )


# ----------------------------------------------------------------------
# The reactive simulation itself
# ----------------------------------------------------------------------
def simulate(workloads, workers=8, **kwargs):
    scheduler = PeekStealScheduler(**kwargs)
    return scheduler._simulate(
        np.asarray(workloads, dtype=np.int64), workers
    )


def test_simulation_conserves_work():
    workloads = [50_000, 8_000, 4_000, 1_000, 500, 200, 100, 0]
    quotas, steals = simulate(workloads)
    assert np.array_equal(quotas.sum(axis=1), np.asarray(workloads))
    assert np.all(quotas >= 0)
    assert steals > 0


def test_simulation_balances_skew():
    quotas, __ = simulate([80_000, 0, 0, 0, 0, 0, 0, 0])
    per_worker = quotas.sum(axis=0)
    assert per_worker.max() < 0.3 * 80_000  # no worker keeps most of it
    assert per_worker.min() > 0


def test_simulation_leaves_balanced_loads_alone():
    quotas, steals = simulate([10_000] * 8)
    assert steals == 0
    assert np.array_equal(np.diag(quotas), np.full(8, 10_000))


def test_simulation_respects_min_steal():
    __, steals = simulate([100, 0, 0, 0], workers=4,
                          min_steal_edges=1_000)
    assert steals == 0


def test_simulation_terminates_on_pathological_input():
    rng = np.random.default_rng(0)
    for __ in range(10):
        workloads = rng.integers(0, 100_000, 8)
        quotas, steals = simulate(workloads.tolist())
        assert np.array_equal(quotas.sum(axis=1), workloads)
        assert steals < 500  # no ping-pong thrash


# ----------------------------------------------------------------------
# End-to-end behaviour
# ----------------------------------------------------------------------
def test_correctness(skewed_weighted, source):
    partition = random_partition(skewed_weighted, 8, seed=0)
    result = engine().run(skewed_weighted, partition, "sssp",
                          source=source)
    assert result.converged
    assert np.allclose(result.values,
                       reference_sssp(skewed_weighted, source))


def test_reduces_stall_on_skewed_partition(skewed_weighted, source):
    partition = segmented_partition(skewed_weighted, 8)
    reactive = engine().run(skewed_weighted, partition, "sssp",
                            source=source)
    static = BSPEngine(dgx1(8)).run(skewed_weighted, partition, "sssp",
                                    source=source)
    assert reactive.stall_fraction() < static.stall_fraction()
    assert np.allclose(reactive.values, static.values)


def test_pays_steal_latency(skewed_weighted, source):
    partition = segmented_partition(skewed_weighted, 8)
    cheap = engine(steal_latency_seconds=1e-6).run(
        skewed_weighted, partition, "sssp", source=source
    )
    costly = engine(steal_latency_seconds=5e-3).run(
        skewed_weighted, partition, "sssp", source=source
    )
    assert costly.breakdown.overhead > cheap.breakdown.overhead


def test_blind_to_topology(skewed_weighted, source):
    """The reactive policy must not consult costs: its quota matrix is
    identical across machines with different interconnects."""
    from repro.hardware import fully_connected, ring_topology
    from repro.runtime.scheduler import RunContext
    from repro.hardware import TimingModel
    from repro.runtime import Frontier

    partition = random_partition(skewed_weighted, 8, seed=0)
    frontier = Frontier(np.arange(0, 600, 2))
    fragments = frontier.split_by_owner(partition.owner, 8)
    workloads = np.array(
        [f.work(skewed_weighted) for f in fragments]
    )
    plans = []
    for topology in (dgx1(8), ring_topology(8), fully_connected(8)):
        scheduler = PeekStealScheduler()
        context = RunContext(
            graph=skewed_weighted, partition=partition,
            timing=TimingModel(topology),
            fragment_home=np.arange(8, dtype=np.int64),
            fragment_worker=np.arange(8, dtype=np.int64),
        )
        scheduler.begin_run(context)
        plans.append(
            scheduler.plan(0, fragments, workloads, context)
        )
    signatures = [
        sorted((c.owner, c.worker, c.edges) for c in plan.chunks)
        for plan in plans
    ]
    assert signatures[0] == signatures[1] == signatures[2]
