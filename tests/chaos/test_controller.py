"""Unit tests for the deterministic fault-injection controller."""

import numpy as np
import pytest

from repro.chaos import ChaosController, ChaosScenario, FaultSpec
from repro.chaos.controller import RETRY_BACKOFF_SECONDS
from repro.errors import FaultInjectionError
from repro.hardware import dgx1


def bound(*faults, seed=0, gpus=4):
    controller = ChaosController(ChaosScenario(faults=faults, seed=seed))
    controller.begin_run(dgx1(gpus))
    return controller


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_unbound_controller_refuses_queries():
    controller = ChaosController()
    with pytest.raises(FaultInjectionError, match="begin_run"):
        controller.topology
    with pytest.raises(FaultInjectionError, match="begin_run"):
        controller.alive_workers()


def test_begin_run_validates_against_the_machine():
    controller = ChaosController(ChaosScenario(
        faults=(FaultSpec("kill_worker", 0, {"worker": 6}),)
    ))
    with pytest.raises(FaultInjectionError, match="out of range"):
        controller.begin_run(dgx1(4))
    controller.begin_run(dgx1(8))  # same controller, bigger machine


def test_begin_run_resets_state():
    controller = bound(FaultSpec("kill_worker", 0, {"worker": 1}))
    controller.advance(0)
    assert controller.dead_workers == {1}
    controller.begin_run(dgx1(4))
    assert controller.dead_workers == set()
    assert controller.stats()["faults_injected"] == 0
    assert controller.stats()["events"] == []
    # the schedule replays identically on the second run
    controller.advance(0)
    assert controller.dead_workers == {1}


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------
def test_advance_fires_at_or_before_iteration():
    controller = bound(FaultSpec("kill_worker", 3, {"worker": 2}))
    assert controller.advance(1) == []
    assert controller.is_alive(2)
    # the engine may converge past the scheduled tick; a late advance
    # still fires the fault exactly once
    events = controller.advance(5)
    assert [e.kind for e in events] == ["kill_worker"]
    assert events[0].iteration == 5
    assert controller.advance(6) == []
    assert controller.dead_workers == {2}
    assert controller.stats()["faults_injected"] == 1


def test_kill_event_names_the_heir():
    controller = bound(FaultSpec("kill_worker", 0, {"worker": 2}))
    (event,) = controller.advance(0)
    heir = event.detail["heir"]
    survivors = controller.alive_workers()
    assert survivors == [0, 1, 3]
    eff = controller.topology.effective_bandwidth_matrix()
    expected = max(survivors, key=lambda w: (eff[2, w], -w))
    assert heir == expected
    assert controller.heir_of(2) == expected
    assert controller.stats()["workers_killed"] == [2]


def test_degrade_link_recomputes_the_machine():
    controller = bound(
        FaultSpec("degrade_link", 2, {"a": 0, "b": 1, "lanes": 0})
    )
    base = controller.topology
    assert not controller.topology_changed
    (event,) = controller.advance(2)
    assert controller.topology_changed
    assert controller.topology.lane_matrix[0, 1] == 0
    assert event.detail["effective_gbps"] == pytest.approx(
        controller.topology.effective_bandwidth(0, 1)
    )
    # the bound topology object is never mutated in place
    assert base.lane_matrix[0, 1] > 0
    assert controller.stats()["links_degraded"] == 1


# ----------------------------------------------------------------------
# Windowed faults
# ----------------------------------------------------------------------
def test_compute_scale_window():
    controller = bound(FaultSpec(
        "slow_worker", 2, {"worker": 1, "factor": 2.0, "duration": 3}
    ))
    assert controller.compute_scale(1) is None
    for it in (2, 3, 4):
        scale = controller.compute_scale(it)
        assert np.array_equal(scale, [1.0, 2.0, 1.0, 1.0])
    assert controller.compute_scale(5) is None


def test_overlapping_slowdowns_multiply():
    controller = bound(
        FaultSpec("slow_worker", 0, {"worker": 1, "factor": 2.0}),
        FaultSpec("slow_worker", 0, {"worker": 1, "factor": 3.0,
                                     "duration": 1}),
    )
    assert np.array_equal(controller.compute_scale(0),
                          [1.0, 6.0, 1.0, 1.0])
    # the open-ended fault outlives the windowed one
    assert np.array_equal(controller.compute_scale(1),
                          [1.0, 2.0, 1.0, 1.0])


def test_flaky_window_and_determinism():
    spec = FaultSpec("flaky_transfers", 1,
                     {"duration": 4, "rate": 0.7, "max_retries": 5})
    first = bound(spec, seed=11)
    second = bound(spec, seed=11)
    assert not first.flaky_active(0)
    assert first.flaky_active(1) and first.flaky_active(4)
    assert not first.flaky_active(5)
    draws = [
        first.failed_transfer_attempts(it, owner, worker)
        for it in range(1, 5)
        for owner in range(4)
        for worker in range(4)
    ]
    replay = [
        second.failed_transfer_attempts(it, owner, worker)
        for it in range(1, 5)
        for owner in range(4)
        for worker in range(4)
    ]
    assert draws == replay
    assert all(0 <= d <= 5 for d in draws)
    assert any(d > 0 for d in draws)  # rate 0.7 over 64 draws
    assert first.stats()["transfer_retries"] == sum(draws)


def test_flaky_draws_depend_on_the_seed():
    spec = FaultSpec("flaky_transfers", 0,
                     {"rate": 0.7, "max_retries": 5})
    a = bound(spec, seed=1)
    b = bound(spec, seed=2)
    draws_a = [a.failed_transfer_attempts(0, o, w)
               for o in range(4) for w in range(4)]
    draws_b = [b.failed_transfer_attempts(0, o, w)
               for o in range(4) for w in range(4)]
    assert draws_a != draws_b


def test_flaky_outside_window_is_free():
    controller = bound(FaultSpec("flaky_transfers", 5, {"rate": 0.9}))
    assert controller.failed_transfer_attempts(0, 0, 1) == 0
    assert controller.stats()["transfer_retries"] == 0


def test_flaky_batch_matches_scalar_bitwise():
    """The vectorized draw is the scalar draw: fails and counters."""
    specs = (
        FaultSpec("flaky_transfers", 0,
                  {"duration": 10, "rate": 0.6, "max_retries": 4}),
        FaultSpec("flaky_transfers", 0,
                  {"duration": 10, "rate": 0.9, "max_retries": 2}),
    )
    rng = np.random.default_rng(3)
    owners = rng.integers(0, 4, size=200)
    workers = rng.integers(0, 4, size=200)

    scalar = bound(*specs, seed=7)
    scalar_fails = np.array([
        scalar.failed_transfer_attempts(2, int(o), int(w))
        for o, w in zip(owners, workers)
    ])

    batch = bound(*specs, seed=7)
    batch_fails = batch.failed_transfer_attempts_batch(2, owners, workers)

    assert np.array_equal(scalar_fails, batch_fails)
    assert scalar.stats() == batch.stats()
    assert batch.stats()["transfer_retries"] > 0


def test_flaky_batch_empty_and_outside_window():
    controller = bound(
        FaultSpec("flaky_transfers", 5, {"rate": 0.9, "max_retries": 3})
    )
    empty = controller.failed_transfer_attempts_batch(
        0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    )
    assert empty.size == 0
    outside = controller.failed_transfer_attempts_batch(
        0, np.array([0, 1]), np.array([1, 2])
    )
    assert np.array_equal(outside, [0, 0])
    assert controller.stats()["transfer_retries"] == 0


def test_retry_seconds_formula():
    assert ChaosController.retry_seconds(1e-3, 0) == 0.0
    # two failed attempts: two retransmits plus 1x + 2x backoff units
    expected = 2 * 1e-3 + RETRY_BACKOFF_SECONDS * 3.0
    assert ChaosController.retry_seconds(1e-3, 2) == pytest.approx(expected)


# ----------------------------------------------------------------------
# Solver timeouts
# ----------------------------------------------------------------------
def test_targeted_timeout_tokens():
    controller = bound(FaultSpec(
        "solver_timeout", 0, {"count": 2, "solver": "highs"}
    ))
    controller.advance(0)
    assert not controller.solver_times_out("lp")  # wrong backend
    assert controller.solver_times_out("highs")
    assert controller.solver_times_out("highs")
    assert not controller.solver_times_out("highs")  # tokens drained
    assert controller.stats()["solver_timeouts"] == 2
    assert controller.drain_timeout_charges() == 2
    assert controller.drain_timeout_charges() == 0


def test_wildcard_timeout_token_matches_any_backend():
    controller = bound(FaultSpec("solver_timeout", 0, {}))
    controller.advance(0)
    assert controller.solver_times_out("anything")
    assert not controller.solver_times_out("anything")


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_stats_shape():
    controller = bound(FaultSpec("kill_worker", 0, {"worker": 3}),
                       seed=5)
    controller.advance(0)
    controller.note_evictions(2)
    stats = controller.stats()
    assert stats["enabled"] is True
    assert stats["scenario"] == "scenario"
    assert stats["seed"] == 5
    assert stats["evictions"] == 2
    assert len(stats["events"]) == 1
    event = stats["events"][0]
    assert event["kind"] == "kill_worker"
    assert event["worker"] == 3
    assert "heir" in event
    for key in ("faults_injected", "links_degraded", "slowdowns",
                "solver_timeouts", "solver_fallbacks",
                "transfer_retries", "transfer_giveups"):
        assert isinstance(stats[key], int)
