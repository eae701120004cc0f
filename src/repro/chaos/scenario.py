"""Chaos scenarios: a declarative, versioned fault schedule.

A :class:`ChaosScenario` is a JSON-serializable list of
:class:`FaultSpec` entries, each firing at a virtual iteration of a
run. The schema is deliberately small and strict — a typo in a
scenario file raises :class:`~repro.errors.FaultInjectionError` at
load time, never mid-run.

Schema (``schema: "repro-chaos/1"``)::

    {
      "schema": "repro-chaos/1",
      "name": "kill-worker",
      "description": "GPU 2 dies at iteration 3",
      "seed": 0,
      "faults": [
        {"kind": "kill_worker",    "at_iteration": 3, "worker": 2},
        {"kind": "slow_worker",    "at_iteration": 1, "worker": 1,
         "factor": 2.5, "duration": 10},
        {"kind": "degrade_link",   "at_iteration": 2, "a": 0, "b": 3,
         "lanes": 1},
        {"kind": "flaky_transfers","at_iteration": 0, "duration": 50,
         "rate": 0.3, "max_retries": 3},
        {"kind": "solver_timeout", "at_iteration": 4, "count": 2,
         "solver": null}
      ]
    }

Fault kinds
-----------
``kill_worker``
    GPU ``worker`` stops computing at ``at_iteration`` and never
    returns. Its memory stays readable (an XID-style compute fault):
    the fragment it homes is still priced over the interconnect, but
    the device leaves the synchronization group and its owned
    fragments are re-assigned to an heir.
``slow_worker``
    Scale GPU ``worker``'s compute time by ``factor`` for ``duration``
    iterations (``duration`` omitted or ``null`` = until the run ends).
``degrade_link``
    Replace the direct NVLink ``a``-``b`` with ``lanes`` lanes
    (``0`` = lost link). The machine topology is re-derived and the
    effective-bandwidth matrix recomputed, so multi-hop steal paths
    reroute.
``flaky_transfers``
    For ``duration`` iterations, every stolen-chunk status migration
    fails independently with probability ``rate`` per attempt; failed
    attempts are retried with exponential backoff up to
    ``max_retries`` times, every attempt charged into modeled time.
``solver_timeout``
    The next ``count`` FSteal solves by ``solver`` (or by whichever
    backend is primary when ``solver`` is null) time out, exercising
    the HiGHS -> LP -> greedy fallback chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.documents import load_json
from repro.errors import FaultInjectionError

__all__ = ["FaultSpec", "ChaosScenario", "SCHEMA_VERSION", "FAULT_KINDS"]

SCHEMA_VERSION = "repro-chaos/1"

#: kind -> (required fields, optional fields with defaults)
FAULT_KINDS: Dict[str, tuple] = {
    "kill_worker": (("worker",), {}),
    "slow_worker": (("worker", "factor"), {"duration": None}),
    "degrade_link": (("a", "b"), {"lanes": 0}),
    "flaky_transfers": ((), {"duration": None, "rate": 0.5,
                             "max_retries": 3}),
    "solver_timeout": ((), {"count": 1, "solver": None}),
}

_COMMON_FIELDS = ("kind", "at_iteration")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FaultInjectionError(message)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault (see the module docstring for semantics)."""

    kind: str
    at_iteration: int
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(self.kind in FAULT_KINDS,
                 f"unknown fault kind {self.kind!r}; known: "
                 f"{sorted(FAULT_KINDS)}")
        _require(
            isinstance(self.at_iteration, int) and self.at_iteration >= 0,
            f"{self.kind}: at_iteration must be a nonnegative integer, "
            f"got {self.at_iteration!r}",
        )
        required, optional = FAULT_KINDS[self.kind]
        unknown = set(self.params) - set(required) - set(optional)
        _require(not unknown,
                 f"{self.kind}: unknown field(s) {sorted(unknown)}")
        missing = set(required) - set(self.params)
        _require(not missing,
                 f"{self.kind}: missing required field(s) "
                 f"{sorted(missing)}")
        params = dict(optional)
        params.update(self.params)
        object.__setattr__(self, "params", params)
        self._check_values()

    def _check_values(self) -> None:
        p = self.params
        if self.kind in ("kill_worker", "slow_worker"):
            _require(isinstance(p["worker"], int) and p["worker"] >= 0,
                     f"{self.kind}: worker must be a nonnegative integer")
        if self.kind == "slow_worker":
            _require(isinstance(p["factor"], (int, float))
                     and p["factor"] > 0,
                     "slow_worker: factor must be a positive number")
        if self.kind == "degrade_link":
            _require(isinstance(p["a"], int) and isinstance(p["b"], int)
                     and p["a"] >= 0 and p["b"] >= 0,
                     "degrade_link: a and b must be nonnegative integers")
            _require(p["a"] != p["b"],
                     "degrade_link: a and b must differ")
            _require(isinstance(p["lanes"], int) and p["lanes"] >= 0,
                     "degrade_link: lanes must be a nonnegative integer")
        if self.kind == "flaky_transfers":
            _require(isinstance(p["rate"], (int, float))
                     and 0.0 <= p["rate"] < 1.0,
                     "flaky_transfers: rate must be in [0, 1)")
            _require(isinstance(p["max_retries"], int)
                     and p["max_retries"] >= 1,
                     "flaky_transfers: max_retries must be >= 1")
        if self.kind == "solver_timeout":
            _require(isinstance(p["count"], int) and p["count"] >= 1,
                     "solver_timeout: count must be >= 1")
            _require(p["solver"] is None or isinstance(p["solver"], str),
                     "solver_timeout: solver must be a string or null")
        for key in ("duration",):
            if key in p and p[key] is not None:
                _require(isinstance(p[key], int) and p[key] >= 1,
                         f"{self.kind}: {key} must be >= 1 or null")

    @property
    def duration(self) -> Optional[int]:
        """Active-iteration count, ``None`` for open-ended faults."""
        return self.params.get("duration")

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (round-trips through ``from_dict``)."""
        payload: Dict[str, object] = {
            "kind": self.kind, "at_iteration": self.at_iteration,
        }
        payload.update(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        """Parse one fault entry, validating its schema."""
        _require(isinstance(payload, dict),
                 f"fault entry must be an object, got {type(payload).__name__}")
        _require("kind" in payload, "fault entry missing 'kind'")
        _require("at_iteration" in payload,
                 f"{payload.get('kind')}: missing 'at_iteration'")
        params = {key: value for key, value in payload.items()
                  if key not in _COMMON_FIELDS}
        return cls(kind=str(payload["kind"]),
                   at_iteration=payload["at_iteration"],
                   params=params)


@dataclass(frozen=True)
class ChaosScenario:
    """A named, seeded schedule of faults."""

    faults: Sequence[FaultSpec] = ()
    name: str = "scenario"
    description: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        _require(isinstance(self.seed, int),
                 f"seed must be an integer, got {self.seed!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def validate_for(self, num_gpus: int) -> None:
        """Reject faults referencing devices this machine lacks."""
        for fault in self.faults:
            p = fault.params
            for key in ("worker", "a", "b"):
                if key in p and not 0 <= int(p[key]) < num_gpus:
                    raise FaultInjectionError(
                        f"{fault.kind}: {key}={p[key]} out of range for "
                        f"a {num_gpus}-GPU machine"
                    )
        kills = [f.params["worker"] for f in self.faults
                 if f.kind == "kill_worker"]
        if len(set(kills)) >= num_gpus:
            raise FaultInjectionError(
                f"scenario kills all {num_gpus} workers; at least one "
                "must survive"
            )

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (round-trips through ``from_dict``)."""
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "faults": [fault.as_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ChaosScenario":
        """Parse and validate a scenario object."""
        _require(isinstance(payload, dict),
                 "scenario must be a JSON object")
        schema = payload.get("schema", SCHEMA_VERSION)
        _require(schema == SCHEMA_VERSION,
                 f"unsupported scenario schema {schema!r} "
                 f"(expected {SCHEMA_VERSION!r})")
        unknown = set(payload) - {"schema", "name", "description",
                                  "seed", "faults"}
        _require(not unknown,
                 f"scenario has unknown field(s) {sorted(unknown)}")
        faults = payload.get("faults", [])
        _require(isinstance(faults, list),
                 "scenario 'faults' must be a list")
        seed = payload.get("seed", 0)
        _require(isinstance(seed, int), "scenario seed must be an integer")
        return cls(
            faults=[FaultSpec.from_dict(entry) for entry in faults],
            name=str(payload.get("name", "scenario")),
            description=str(payload.get("description", "")),
            seed=seed,
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ChaosScenario":
        """Load a scenario JSON file; schema errors name the file."""
        path = Path(path)
        payload = load_json(path, FaultInjectionError, "chaos scenario")
        try:
            scenario = cls.from_dict(payload)
        except FaultInjectionError as exc:
            raise FaultInjectionError(f"{path}: {exc}") from exc
        if scenario.name == "scenario":
            scenario = ChaosScenario(
                faults=scenario.faults, name=path.stem,
                description=scenario.description, seed=scenario.seed,
            )
        return scenario
