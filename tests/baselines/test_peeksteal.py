"""Unit tests for the reactive (peek-and-grab) stealing baseline."""

import pathlib

import numpy as np
import pytest

import repro
from repro.algorithms.validate import reference_sssp
from repro.baselines import PeekStealScheduler
from repro.chaos.controller import ChaosController
from repro.chaos.scenario import ChaosScenario
from repro.graph import datasets
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
        np.asarray(workloads, dtype=np.int64), np.arange(len(workloads)),
        workers, range(workers),
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
        sorted(zip(plan.owner, plan.worker, plan.edges))
        for plan in plans
    ]
    assert signatures[0] == signatures[1] == signatures[2]


# ----------------------------------------------------------------------
# Degraded machines
# ----------------------------------------------------------------------
KILL_WORKER = (pathlib.Path(__file__).resolve().parents[2]
               / "benchmarks" / "scenarios" / "kill-worker.json")


@pytest.mark.parametrize("algorithm", ["bfs", "sssp", "pr"])
def test_survives_a_killed_worker(algorithm):
    """The evicted GPU's fragment is queued on its heir, and the dead
    GPU neither steals nor joins the group: the run completes with the
    healthy answer and GPU 2 idle from its death on."""
    graph = datasets.load("TX")
    healthy = repro.run(graph, algorithm, engine="peeksteal", num_gpus=4)
    chaos = ChaosController(ChaosScenario.from_file(KILL_WORKER))
    degraded = repro.run(graph, algorithm, engine="peeksteal", num_gpus=4,
                         chaos=chaos)
    assert degraded.num_iterations == healthy.num_iterations
    assert np.array_equal(degraded.values, healthy.values)
    after = [r for r in degraded.iterations if r.iteration >= 1]
    assert after
    assert all(r.busy_seconds[2] == 0.0 for r in after)
    assert all(2 not in r.active_workers for r in after)


@pytest.mark.parametrize("graph, algorithm, gpus, total_ms", [
    pytest.param("TX", "bfs", 4, "60.26256343316962", id="TX-bfs-4"),
    pytest.param("CF", "pr", 8, "19355.24240082218", id="CF-pr-8"),
])
def test_healthy_virtual_time_is_pinned(graph, algorithm, gpus, total_ms):
    """Seeding the queues from ``fragment_worker`` and leaving dead
    GPUs out of the pool must not move a healthy run: these totals
    were recorded with every fragment seeded on its own GPU.
    Regenerate (only for an intended change) with
    ``repr(repro.run(datasets.load(g), a, engine="peeksteal",
    num_gpus=n).total_ms)``."""
    result = repro.run(datasets.load(graph), algorithm,
                       engine="peeksteal", num_gpus=gpus)
    assert repr(result.total_ms) == total_ms
