"""Focused unit tests for arbitrator internals (gate, backoff, makespan,
and the stages of ``plan``)."""

import numpy as np
import pytest

from repro.bench.workloads import pick_source, prepare_graph
from repro.core import GumConfig, GumEngine, GumScheduler
from repro.core.arbitrator import GumScheduler as _Sched
from repro.core.milp import FStealSolution
from repro.graph import erdos_renyi, from_edge_arrays, with_random_weights
from repro.hardware import TimingModel, dgx1
from repro.hardware.topology import parse_topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import InMemorySink, Tracer
from repro.partition import random_partition, segmented_partition
from repro.runtime import BSPEngine, Frontier
from repro.runtime.scheduler import RunContext, realize_plan


def test_static_makespan():
    costs = np.array([[1.0, 2.0], [3.0, 4.0]])
    workloads = np.array([10, 10])
    worker_of = np.array([0, 1])
    # worker 0 gets fragment 0 (10 * 1), worker 1 gets fragment 1 (10 * 4)
    assert _Sched._static_makespan(costs, workloads, worker_of) == 40.0
    # both fragments on worker 0: 10*1 + 10*3
    assert _Sched._static_makespan(
        costs, workloads, np.array([0, 0])
    ) == 40.0
    assert _Sched._static_makespan(
        costs, np.array([0, 0]), worker_of
    ) == 0.0


def test_gate_suppresses_unprofitable_steals(skewed_weighted, source):
    """On a near-balanced random partition the gate should suppress
    most steals that the raw t1/t2 thresholds would admit."""
    partition = random_partition(skewed_weighted, 8, seed=0)
    eager = GumConfig(
        fsteal=True, osteal=False, cost_model="oracle",
        t1_min_edges=0, t2_imbalance_edges=0, t2_imbalance_ratio=0.0,
    )
    run = GumEngine(dgx1(8), eager).run(
        skewed_weighted, partition, "sssp", source=source
    )
    committed = sum(r.fsteal_applied for r in run.iterations)
    # the busiest iterations steal; the tiny ones are gated out
    assert committed < run.num_iterations


def test_gate_never_blocks_profitable_steals(skewed_weighted, source):
    """On a concentrated (segmented) partition the big iterations must
    still steal despite the gate."""
    partition = segmented_partition(skewed_weighted, 8)
    config = GumConfig(fsteal=True, osteal=False, cost_model="oracle")
    run = GumEngine(dgx1(8), config).run(
        skewed_weighted, partition, "sssp", source=source
    )
    assert sum(r.stolen_edges for r in run.iterations) > 0


def test_osteal_backoff_reduces_evaluations():
    """A long stable tail must not pay an enumeration every cooldown."""
    # long weighted path: hundreds of tiny iterations, stable decision
    n = 400
    a = np.arange(n - 1, dtype=np.int64)
    graph = with_random_weights(
        from_edge_arrays(a, a + 1, num_vertices=n, name="chain"), seed=1
    )
    partition = random_partition(graph, 8, seed=0)
    fast = GumConfig(cost_model="oracle", osteal_cooldown=5)
    run = GumEngine(dgx1(8), fast).run(graph, partition, "sssp", source=0)
    # count iterations charged with OSteal-scale overhead
    eval_cost = GumScheduler._modeled_osteal_seconds(8)
    evaluations = sum(
        1 for r in run.iterations
        if r.breakdown.overhead >= eval_cost
    )
    # without backoff this would be ~iterations/cooldown = ~80
    assert evaluations < run.num_iterations / 5 / 2
    assert run.converged


def test_explosive_regrowth_bypasses_backoff():
    """The 4x workload-growth trigger must fire even mid-backoff."""
    from repro.graph import erdos_renyi

    fuse = 80
    blob = erdos_renyi(500, 30_000, seed=0)
    bsrc, bdst = blob.edge_array()
    path = np.arange(fuse, dtype=np.int64)
    src = np.concatenate([path[:-1], [fuse - 1], bsrc + fuse])
    dst = np.concatenate([path[1:], [fuse], bdst + fuse])
    graph = from_edge_arrays(src, dst, name="fusebomb2")
    partition = random_partition(graph, 8, seed=0)
    config = GumConfig(cost_model="oracle", osteal_cooldown=5)
    run = GumEngine(dgx1(8), config).run(graph, partition, "bfs",
                                         source=0)
    sizes = run.group_size_series()
    assert min(sizes[:fuse]) < 4  # folded hard during the fuse
    # regrew within a few iterations of the explosion
    explosion = fuse
    assert max(sizes[explosion: explosion + 6]) == 8


def test_modeled_overhead_scales_with_workers():
    assert GumScheduler._modeled_osteal_seconds(8) == pytest.approx(
        2 * GumScheduler._modeled_osteal_seconds(4)
    )
    assert GumScheduler._modeled_fsteal_seconds(8) > (
        GumScheduler._modeled_fsteal_seconds(2)
    )


# ----------------------------------------------------------------------
# plan() stages: realize_plan, the FSteal fallback rule, observer isolation
# ----------------------------------------------------------------------
class _RecordingScheduler(GumScheduler):
    """GumScheduler that keeps every plan it hands the engine."""

    def __init__(self, config):
        super().__init__(config)
        self.plans = []
        self.ownership = []

    def plan(self, iteration, fragment_frontiers, workloads, context):
        plan = super().plan(iteration, fragment_frontiers, workloads,
                            context)
        self.plans.append(plan)
        self.ownership.append(context.fragment_worker.copy())
        return plan


def _rows(plan):
    """Every column of every chunk row, spans in place of vertex lists."""
    return list(zip(plan.owner, plan.worker, plan.start, plan.stop,
                    plan.edges, plan.hub_edges))


@pytest.mark.parametrize("shape", ["flat", "nodes=2x2"])
def test_realize_whole_fragment_solution_equals_no_solution(
    skewed_graph, shape
):
    """The no-steal case *is* the steal case with one whole-fragment
    assignment per fragment: an X that leaves every fragment on its
    current worker must realize chunk for chunk like no X at all."""
    topology = dgx1(4) if shape == "flat" else parse_topology(shape)
    partition = random_partition(skewed_graph, 4, seed=0)
    context = RunContext(
        graph=skewed_graph,
        partition=partition,
        timing=TimingModel(topology),
        fragment_home=np.arange(4, dtype=np.int64),
        # fragments 1 and 3 are processed away from home, so the hub
        # cache is consulted; fragment 2 crosses nodes on the 2x2 shape
        fragment_worker=np.array([0, 0, 0, 2], dtype=np.int64),
    )
    scheduler = GumScheduler(
        GumConfig(cost_model="oracle", t4_hub_in_degree=8)
    )
    scheduler.begin_run(context)
    frontiers = Frontier(np.arange(0, 900, 3)).split_by_owner(
        partition.owner, 4
    )
    workloads = np.array([f.work(skewed_graph) for f in frontiers])
    whole = np.zeros((4, 4), dtype=np.int64)
    whole[np.arange(4), context.fragment_worker] = workloads
    solution = FStealSolution(assignment=whole, objective=0.0,
                              solver="test")
    hub_cache = scheduler._state.hub_cache
    plain = realize_plan(context, frontiers, workloads,
                         hub_cache=hub_cache, active_workers=[])
    stolen = realize_plan(context, frontiers, workloads,
                          quotas=solution.assignment, hub_cache=hub_cache,
                          active_workers=[])
    assert len(plain.owner) == 4
    assert any(plain.hub_edges)
    assert _rows(stolen) == _rows(plain)


def test_osteal_without_fsteal_trigger_stays_owner_local(road_graph):
    """OSteal enumerates an X for the group it picks; while the t1/t2
    gates are unmet that X is dropped for owner-local processing."""
    graph = with_random_weights(road_graph, seed=2)
    partition = random_partition(graph, 8, seed=0)
    scheduler = _RecordingScheduler(
        GumConfig(cost_model="oracle", t1_min_edges=10**9)
    )
    BSPEngine(dgx1(8), scheduler=scheduler, name="gum").run(
        graph, partition, "sssp", source=0
    )
    entries = scheduler.ledger.entries
    folded = [
        i for i, entry in enumerate(entries)
        if entry["osteal"] is not None
        and entry["osteal"]["group_size"] < 8
    ]
    assert folded  # the long tail did fold the group
    for i in folded:
        plan, owner_of = scheduler.plans[i], scheduler.ownership[i]
        assert not plan.fsteal_applied
        assert entries[i]["fsteal"] is None
        assert len(set(plan.owner)) == len(plan.owner)
        assert plan.worker == owner_of[plan.owner].tolist()


def test_observers_never_steer():
    """Tracer, metrics and ledger only watch: the plan sequence of a
    USA/sssp@8 run is identical with all three on and all three off."""
    graph = prepare_graph("USA", "sssp")
    partition = random_partition(graph, 8, seed=0)

    def plans(observed):
        scheduler = _RecordingScheduler(GumConfig(ledger=observed))
        BSPEngine(
            dgx1(8), scheduler=scheduler, name="gum",
            tracer=Tracer(sinks=[InMemorySink()]) if observed else None,
            metrics=MetricsRegistry() if observed else None,
        ).run(graph, partition, "sssp", source=pick_source("USA"))
        return [
            (_rows(plan), plan.decision_seconds,
             plan.osteal_group_size, plan.active_workers,
             plan.fsteal_applied, plan.stolen_edges)
            for plan in scheduler.plans
        ]

    watched, alone = plans(True), plans(False)
    assert len(watched) > 100
    assert watched == alone


def test_a_declined_fingerprint_is_solved_and_cached_when_it_recurs():
    """GM/pr@8's FSteal instances repeat bit for bit. The first one is
    declined (no solve could pass the gate); when its fingerprint misses
    again it is solved and cached, so every later repeat hits the plan
    cache as it did before declines existed."""
    from repro.bench.workloads import algorithm_params
    from repro.obs.ledger import Ledger, explain_lines

    graph = prepare_graph("GM", "pr")
    result = GumEngine(dgx1(8)).run(
        graph, random_partition(graph, 8, seed=0), "pr",
        **algorithm_params("pr", "GM"),
    )
    entries = [e for e in result.ledger.entries if e["fsteal"] is not None]
    statuses = [e["cache_status"] for e in entries]
    assert statuses[:2] == ["declined", "live"]
    assert set(statuses[2:]) == {"cached"}
    declined = entries[0]["fsteal"]
    assert declined["objective"] is None and declined["gain"] is None
    assert declined["rejected_by_gate"] and not entries[0]["fsteal_applied"]
    assert (declined["static_makespan"] - declined["lower_bound"]
            <= declined["modeled_overhead"])
    assert "lower_bound" not in entries[1]["fsteal"]
    loaded = Ledger.from_dict(result.ledger.as_dict())
    assert loaded.entries == result.ledger.entries
    story = "\n".join(explain_lines(loaded))
    assert "fsteal declined via greedy, objective -, unsolved: bound" in story
    assert "1 declined before solving" in story
