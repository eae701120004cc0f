"""Deterministic fault injection for the simulated multi-GPU runtime.

Public surface:

* :class:`~repro.chaos.scenario.ChaosScenario` /
  :class:`~repro.chaos.scenario.FaultSpec` — the versioned JSON fault
  schedule (``repro-chaos/1``).
* :class:`~repro.chaos.controller.ChaosController` — replays a
  scenario against a run: kills workers, degrades links, injects
  solver timeouts and flaky transfers, all as pure functions of the
  scenario seed.
* :class:`~repro.chaos.fallback.FallbackSolver` — the
  HiGHS -> LP -> greedy degradation chain.

See ``docs/robustness.md`` for the fault model and
``examples/chaos_drill.py`` for an end-to-end walkthrough.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.chaos.scenario": (
        "ChaosScenario", "FaultSpec", "SCHEMA_VERSION", "FAULT_KINDS",
    ),
    "repro.chaos.controller": ("ChaosController", "FaultEvent"),
    "repro.chaos.fallback": ("FallbackSolver",),
})
