"""The fault-injection controller: deterministic chaos at run time.

A :class:`ChaosController` owns one
:class:`~repro.chaos.scenario.ChaosScenario` and answers the runtime's
questions each iteration: *who is alive*, *how slow is worker j*,
*what does the interconnect look like now*, *did this steal transfer
fail*, *does this solve time out*. Every answer is a pure function of
``(scenario seed, iteration, operands)`` — two runs of the same
scenario produce bit-identical virtual times, which is what makes
chaos runs diffable in the run registry.

The controller never touches algorithm state: like the scheduler, it
can make a run *slow*, never *wrong*. With no faults scheduled it
returns identity answers along paths the engine only takes when a
fault is active, so attaching an empty controller leaves virtual times
bit-identical to a run without the chaos layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

import numpy as np

from repro.errors import DegradedModeError, FaultInjectionError
from repro.hardware.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.scenario import ChaosScenario, FaultSpec

__all__ = ["FaultEvent", "ChaosController"]

#: Fixed backoff unit for retried steal transfers (seconds); retry ``k``
#: waits ``2**k`` of these before retransmitting.
RETRY_BACKOFF_SECONDS = 5e-5

#: Modeled decision-time cost of one solver timeout (the abandoned
#: solve's budget, charged before the fallback backend runs).
SOLVER_TIMEOUT_SECONDS = 2e-3


@dataclass(frozen=True)
class FaultEvent:
    """One fault firing at a specific iteration.

    ``detail`` carries derived facts the runtime needs beyond the spec
    (the heir of a killed worker, the recomputed bandwidth of a
    degraded pair) and is what lands in traces and the run summary.
    """

    kind: str
    iteration: int
    spec: FaultSpec
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view for traces and ``result_summary``."""
        payload: Dict[str, object] = {
            "kind": self.kind, "iteration": self.iteration,
        }
        payload.update({k: v for k, v in self.spec.params.items()
                        if v is not None})
        payload.update(self.detail)
        return payload


class ChaosController:
    """Per-run fault scheduler and degraded-machine bookkeeping.

    Construct once per scenario; :meth:`begin_run` resets all mutable
    state, so one controller can drive many runs (each run replays the
    same deterministic schedule).
    """

    def __init__(self, scenario: Optional[ChaosScenario] = None) -> None:
        if not scenario:  # None, or a scenario with no faults
            from repro.chaos.scenario import ChaosScenario

            scenario = ChaosScenario()
        self._scenario = scenario
        self._topology: Optional[Topology] = None
        self._base_topology: Optional[Topology] = None
        self.reset()

    # ------------------------------------------------------------------
    @property
    def scenario(self) -> ChaosScenario:
        """The fault schedule this controller replays."""
        return self._scenario

    @property
    def topology(self) -> Topology:
        """The machine as currently degraded."""
        if self._topology is None:
            raise FaultInjectionError(
                "controller used before begin_run"
            )
        return self._topology

    @property
    def topology_changed(self) -> bool:
        """True once any link fault has altered the interconnect."""
        return self._topology is not self._base_topology

    @property
    def iteration(self) -> int:
        """The iteration :meth:`advance` last reached (-1 before any)."""
        return self._iteration

    @property
    def dead_workers(self) -> Set[int]:
        """Workers killed so far (monotone within a run)."""
        return set(self._dead)

    def is_alive(self, worker: int) -> bool:
        """False once ``worker`` has been killed."""
        return worker not in self._dead

    def alive_workers(self) -> List[int]:
        """Sorted surviving worker ids."""
        if self._base_topology is None:
            raise FaultInjectionError("controller used before begin_run")
        return [w for w in range(self._base_topology.num_gpus)
                if w not in self._dead]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all per-run state (called by :meth:`begin_run`)."""
        self._dead: Set[int] = set()
        self._fired: Set[int] = set()  # indices into scenario.faults
        self._timeout_tokens: List[Dict[str, object]] = []
        self._iteration = -1
        self._topology = self._base_topology
        self._counters: Dict[str, int] = {
            "faults_injected": 0,
            "evictions": 0,
            "links_degraded": 0,
            "slowdowns": 0,
            "solver_timeouts": 0,
            "solver_fallbacks": 0,
            "transfer_retries": 0,
            "transfer_giveups": 0,
        }
        self._events: List[FaultEvent] = []
        self._new_timeout_charges = 0

    def begin_run(self, topology: Topology) -> None:
        """Bind to a machine and reset the schedule for a fresh run."""
        self._scenario.validate_for(topology.num_gpus)
        self._base_topology = topology
        self.reset()

    # ------------------------------------------------------------------
    def advance(self, iteration: int) -> List[FaultEvent]:
        """Fire every fault scheduled at or before ``iteration``.

        Returns the newly fired events (empty almost always). One-shot
        faults (kill, link degradation) mutate controller state here;
        windowed faults (slowdown, flaky transfers) merely activate —
        their effect is queried per iteration.
        """
        self._iteration = iteration
        events: List[FaultEvent] = []
        for index, fault in enumerate(self._scenario.faults):
            if index in self._fired or fault.at_iteration > iteration:
                continue
            self._fired.add(index)
            events.append(self._fire(fault, iteration))
        if events:
            self._counters["faults_injected"] += len(events)
            self._events.extend(events)
        return events

    def _fire(self, fault: FaultSpec, iteration: int) -> FaultEvent:
        detail: Dict[str, object] = {}
        if fault.kind == "kill_worker":
            worker = int(fault.params["worker"])
            if worker not in self._dead:
                self._dead.add(worker)
                if not self.alive_workers():
                    raise DegradedModeError(
                        "chaos scenario killed every worker; no survivor "
                        "can absorb the workload"
                    )
                detail["heir"] = self.heir_of(worker)
        elif fault.kind == "degrade_link":
            a, b = int(fault.params["a"]), int(fault.params["b"])
            lanes = int(fault.params["lanes"])
            self._topology = self.topology.with_degraded_link(a, b, lanes)
            self._counters["links_degraded"] += 1
            detail["effective_gbps"] = float(
                self._topology.effective_bandwidth(a, b)
            )
        elif fault.kind == "slow_worker":
            self._counters["slowdowns"] += 1
        elif fault.kind == "solver_timeout":
            self._timeout_tokens.append({
                "remaining": int(fault.params["count"]),
                "solver": fault.params["solver"],
            })
        # flaky_transfers needs no activation state: its window is
        # re-derived from the spec on every query
        return FaultEvent(kind=fault.kind, iteration=iteration,
                          spec=fault, detail=detail)

    # ------------------------------------------------------------------
    def heir_of(self, dead_worker: int) -> int:
        """Survivor that inherits a dead worker's fragments.

        The alive worker with the highest effective bandwidth to the
        dead GPU's memory (its data stays readable), lowest id on ties
        — the same widest-link preference the OSteal reduction tree
        folds along.
        """
        survivors = self.alive_workers()
        if not survivors:
            raise DegradedModeError("no surviving worker to inherit")
        eff = self.topology.effective_bandwidth_matrix()
        return max(survivors,
                   key=lambda w: (eff[dead_worker, w], -w))

    def compute_scale(self, iteration: int) -> Optional[np.ndarray]:
        """Per-worker compute-time factors, or ``None`` when all are 1.

        Returning ``None`` on the common path lets the engine skip the
        multiply entirely, keeping fault-free iterations bit-identical.
        """
        scale: Optional[np.ndarray] = None
        for fault in self._scenario.faults:
            if fault.kind != "slow_worker":
                continue
            if not self._window_active(fault, iteration):
                continue
            if scale is None:
                scale = np.ones(self.topology.num_gpus)
            scale[int(fault.params["worker"])] *= float(
                fault.params["factor"]
            )
        return scale

    @staticmethod
    def _window_active(fault: FaultSpec, iteration: int) -> bool:
        if iteration < fault.at_iteration:
            return False
        duration = fault.duration
        return duration is None or iteration < fault.at_iteration + duration

    # ------------------------------------------------------------------
    def flaky_active(self, iteration: int) -> bool:
        """True when any flaky-transfers window covers ``iteration``.

        Lets the engine skip the per-chunk retry draw entirely on
        iterations without an active fault.
        """
        return any(
            fault.kind == "flaky_transfers"
            and self._window_active(fault, iteration)
            for fault in self._scenario.faults
        )

    def failed_transfer_attempts(
        self, iteration: int, owner: int, worker: int
    ) -> int:
        """Failed attempts before this steal transfer succeeds (0..cap).

        Deterministic in ``(seed, iteration, owner, worker)``: the same
        scenario replays the same failures. Capped at the fault's
        ``max_retries``; hitting the cap counts as a give-up (the
        transfer is completed by the final attempt regardless, so
        chaos cannot corrupt algorithm state — only charge time).
        """
        fails = 0
        for fault in self._scenario.faults:
            if fault.kind != "flaky_transfers":
                continue
            if not self._window_active(fault, iteration):
                continue
            rate = float(fault.params["rate"])
            cap = int(fault.params["max_retries"])
            rng = np.random.default_rng(
                [self._scenario.seed, iteration, owner, worker]
            )
            attempt_fails = 0
            while attempt_fails < cap and rng.random() < rate:
                attempt_fails += 1
            if attempt_fails >= cap:
                self._counters["transfer_giveups"] += 1
            self._counters["transfer_retries"] += attempt_fails
            fails = max(fails, attempt_fails)
        return fails

    def failed_transfer_attempts_batch(
        self, iteration: int, owners: np.ndarray, workers: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`failed_transfer_attempts` over chunk arrays.

        Bit-identical to calling the scalar method once per chunk, in
        draws and in counters: the seeded generator for a given
        ``(iteration, owner, worker)`` produces the same stream whether
        drawn one float at a time or as a batch, so attempts are
        evaluated once per *distinct* (owner, worker) pair and
        broadcast back to chunks; counters accumulate per chunk, as
        before, via the pair multiplicities.
        """
        owners = np.asarray(owners, dtype=np.int64)
        workers = np.asarray(workers, dtype=np.int64)
        fails = np.zeros(owners.shape, dtype=np.int64)
        if owners.size == 0:
            return fails
        pairs = np.stack([owners, workers], axis=1)
        unique_pairs, inverse = np.unique(
            pairs, axis=0, return_inverse=True
        )
        inverse = inverse.ravel()
        for fault in self._scenario.faults:
            if fault.kind != "flaky_transfers":
                continue
            if not self._window_active(fault, iteration):
                continue
            rate = float(fault.params["rate"])
            cap = int(fault.params["max_retries"])
            pair_fails = np.empty(len(unique_pairs), dtype=np.int64)
            for row, (owner, worker) in enumerate(unique_pairs.tolist()):
                draws = np.random.default_rng(
                    [self._scenario.seed, iteration, owner, worker]
                ).random(cap)
                passed = np.flatnonzero(draws >= rate)
                pair_fails[row] = passed[0] if passed.size else cap
            chunk_fails = pair_fails[inverse]
            self._counters["transfer_giveups"] += int(
                np.count_nonzero(chunk_fails >= cap)
            )
            self._counters["transfer_retries"] += int(chunk_fails.sum())
            np.maximum(fails, chunk_fails, out=fails)
        return fails

    @staticmethod
    def retry_seconds(transfer_seconds: float, fails: int) -> float:
        """Modeled cost of ``fails`` failed attempts of one transfer.

        Each failed attempt retransmits the payload and then backs off
        exponentially before the next try.
        """
        if fails <= 0:
            return 0.0
        backoff = RETRY_BACKOFF_SECONDS * (2.0 ** fails - 1.0)
        return fails * transfer_seconds + backoff

    # ------------------------------------------------------------------
    def solver_times_out(self, solver_name: str) -> bool:
        """Consume one timeout token matching ``solver_name``, if any."""
        for token in self._timeout_tokens:
            if token["remaining"] <= 0:
                continue
            wanted = token["solver"]
            if wanted is not None and wanted != solver_name:
                continue
            token["remaining"] = int(token["remaining"]) - 1
            self._counters["solver_timeouts"] += 1
            self._new_timeout_charges += 1
            return True
        return False

    def solver_timeout_armed(self) -> bool:
        """Whether some solver-timeout token still has charges left."""
        return any(token["remaining"] > 0 for token in self._timeout_tokens)

    def note_solver_fallback(self) -> None:
        """Record that a fallback backend had to take over a solve."""
        self._counters["solver_fallbacks"] += 1

    def drain_timeout_charges(self) -> int:
        """Timeouts since the last drain (for modeled-overhead billing)."""
        charges = self._new_timeout_charges
        self._new_timeout_charges = 0
        return charges

    def note_evictions(self, count: int) -> None:
        """Record fragments whose ownership moved off a dead worker."""
        self._counters["evictions"] += int(count)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Run-level chaos summary (lands in ``result_summary['chaos']``)."""
        payload: Dict[str, object] = {
            "enabled": True,
            "scenario": self._scenario.name,
            "seed": self._scenario.seed,
            "workers_killed": sorted(self._dead),
            "events": [event.as_dict() for event in self._events],
        }
        payload.update({key: int(value)
                        for key, value in self._counters.items()})
        return payload
