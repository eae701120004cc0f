"""End-to-end fault injection through the GUM runtime.

The contract under test: faults cost virtual time, never answers —
and with no faults scheduled, attaching the chaos layer leaves the
run bit-identical.
"""

import numpy as np
import pytest

import repro
from repro.algorithms.validate import reference_bfs
from repro.chaos import ChaosController, ChaosScenario, FaultSpec
from repro.core import GumConfig
from repro.errors import EngineError


def controller(*faults, seed=0):
    return ChaosController(ChaosScenario(faults=faults, seed=seed))


def run_bfs(graph, source, config, chaos=None):
    return repro.run(graph, "bfs", num_gpus=4, source=source,
                     gum_config=config, chaos=chaos)


@pytest.fixture(scope="module")
def oracle_config():
    # module-scoped twin of the top-level fixture, so the healthy
    # baseline below is computed once per module
    return GumConfig(cost_model="oracle")


@pytest.fixture(scope="module")
def healthy(skewed_graph, source, oracle_config):
    return run_bfs(skewed_graph, source, oracle_config)


@pytest.fixture(scope="module")
def oracle(skewed_graph, source):
    return reference_bfs(skewed_graph, source)


def test_no_fault_run_is_bit_identical(skewed_graph, source,
                                       oracle_config, healthy):
    chaotic = run_bfs(skewed_graph, source, oracle_config,
                      chaos=controller())
    # exact equality, not approx: the chaos layer must not perturb
    # a single floating-point operation on the fault-free path
    assert chaotic.total_seconds == healthy.total_seconds
    assert chaotic.num_iterations == healthy.num_iterations
    assert np.array_equal(chaotic.values, healthy.values)
    assert healthy.chaos is None
    assert chaotic.chaos["enabled"] is True
    assert chaotic.chaos["faults_injected"] == 0


def test_kill_worker_evicts_and_stays_correct(skewed_graph, source,
                                              oracle_config, oracle):
    chaos = controller(FaultSpec("kill_worker", 1, {"worker": 2}))
    first = run_bfs(skewed_graph, source, oracle_config, chaos=chaos)
    replay = run_bfs(skewed_graph, source, oracle_config, chaos=chaos)
    assert first.total_seconds == replay.total_seconds
    assert np.array_equal(first.values, oracle)
    stats = first.chaos
    assert stats["workers_killed"] == [2]
    assert stats["faults_injected"] == 1
    assert stats["evictions"] >= 1
    (event,) = stats["events"]
    assert event["kind"] == "kill_worker"
    assert event["heir"] != 2


def test_slow_worker_costs_time_not_answers(skewed_graph, source,
                                            oracle_config, healthy):
    chaos = controller(FaultSpec(
        "slow_worker", 0, {"worker": 0, "factor": 8.0}
    ))
    slowed = run_bfs(skewed_graph, source, oracle_config, chaos=chaos)
    assert slowed.total_seconds > healthy.total_seconds
    assert np.array_equal(slowed.values, healthy.values)
    assert slowed.chaos["slowdowns"] == 1


def test_degrade_link_reroutes_not_corrupts(skewed_graph, source,
                                            oracle_config, healthy):
    chaos = controller(FaultSpec(
        "degrade_link", 0, {"a": 0, "b": 1, "lanes": 0}
    ))
    degraded = run_bfs(skewed_graph, source, oracle_config, chaos=chaos)
    assert np.array_equal(degraded.values, healthy.values)
    stats = degraded.chaos
    assert stats["links_degraded"] == 1
    (event,) = stats["events"]
    assert event["effective_gbps"] > 0


def test_flaky_transfers_charge_retry_time(skewed_graph, source,
                                           oracle_config, healthy):
    chaos = controller(
        FaultSpec("flaky_transfers", 0,
                  {"rate": 0.6, "max_retries": 3}),
        seed=7,
    )
    flaky = run_bfs(skewed_graph, source, oracle_config, chaos=chaos)
    assert np.array_equal(flaky.values, healthy.values)
    assert flaky.chaos["transfer_retries"] > 0
    assert flaky.total_seconds > healthy.total_seconds


def test_solver_timeout_degrades_gracefully(skewed_graph, source,
                                            oracle_config, healthy):
    chaos = controller(FaultSpec("solver_timeout", 0, {"count": 1}))
    degraded = run_bfs(skewed_graph, source, oracle_config, chaos=chaos)
    assert np.array_equal(degraded.values, healthy.values)
    stats = degraded.chaos
    assert stats["solver_timeouts"] == 1
    assert stats["solver_fallbacks"] == 1
    # the abandoned solve's budget lands in modeled decision time
    assert degraded.total_seconds > healthy.total_seconds


def test_chaos_requires_a_bsp_style_engine(skewed_graph, source):
    with pytest.raises(EngineError, match="BSP-style"):
        repro.run(skewed_graph, "bfs", engine="groute", num_gpus=4,
                  source=source, chaos=controller())


def test_chaos_works_on_the_static_baselines(skewed_graph, source):
    chaos = controller(FaultSpec(
        "slow_worker", 0, {"worker": 1, "factor": 4.0}
    ))
    baseline = repro.run(skewed_graph, "bfs", engine="gunrock",
                         num_gpus=4, source=source)
    slowed = repro.run(skewed_graph, "bfs", engine="gunrock",
                       num_gpus=4, source=source, chaos=chaos)
    assert np.array_equal(slowed.values, baseline.values)
    assert slowed.total_seconds > baseline.total_seconds


def test_exhausted_solver_chain_fails_at_its_first_stealing_decision(
    scenario_dir,
):
    """``solver-exhausted.json`` raises at iteration 1, as it always has.

    A decision FSteal declines before solving makes no solver call, so
    it would not consume a timeout token: the arbitrator never declines
    while one is armed.
    """
    from repro.bench.runner import Cell, run_cell
    from repro.errors import SolverError

    chaos = ChaosController(
        ChaosScenario.from_file(scenario_dir / "solver-exhausted.json")
    )
    with pytest.raises(SolverError, match="all solver backends failed"):
        run_cell(Cell("gum", "bfs", "TX", num_gpus=4), chaos=chaos)
    assert chaos.iteration == 1
    assert chaos.stats()["solver_timeouts"] == 2
