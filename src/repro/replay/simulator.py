"""Replay a recorded run: check the recording, or re-execute it.

Without an override, :func:`replay_run` re-executes nothing: it checks
the archived run (trace + ledger) against itself. Every stored
``predicted_seconds`` and the sealed online RMSRE (``final_rmsre``)
reconstruct from the ledger, and the trace is ``complete`` (as many
supersteps as the manifest counts, one for every ledger entry). When
all three hold the recording is *bit-identical*: the ``repro replay
--check`` gate CI runs on the committed reference runs.

With a cost-model or topology override the recorded workload is
**re-executed** on the path ``repro run`` takes
(:func:`repro.bench.runner.run_cell`). Runs are deterministic, so the
answer is the exact counterfactual: a model is judged by what it
decides, not by how low it predicts. A fingerprint field the run path
cannot honour is a :class:`ReplayError` naming the field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.errors import ReproError
from repro.obs import analysis
from repro.obs.ledger import (
    Ledger,
    predicted_critical_seconds,
    reconstruct_rmsre,
)
from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.costmodel import CostModel
    from repro.hardware.topology import Topology
    from repro.runs.diff import RunDiff

__all__ = [
    "REPLAY_SCHEMA",
    "ReplayError",
    "ReplayRunResult",
    "format_replay_result",
    "replay_run",
]

REPLAY_SCHEMA = "repro-replay/2"

#: the ledger fields that make up one superstep's decision
DECISION_FIELDS = ("active_workers", "fsteal_applied", "stolen_edges")

#: the fingerprint fields every re-execution reads
_REQUIRED_FIELDS = ("engine", "algorithm", "graph", "num_gpus",
                    "partitioner", "solver", "amortize")

#: the fingerprint fields a re-execution reads when present
_OPTIONAL_FIELDS = ("cost_model", "seed", "partition_seed", "topology",
                    "fsteal", "osteal", "hub_cache")


class ReplayError(ReproError):
    """A recorded run that cannot be replayed (no ledger, bad ref, or
    a fingerprint field a re-execution cannot honour)."""


@dataclass
class ReplayRunResult:
    """Outcome of :func:`replay_run`: the recording's checks and,
    under an override, the re-executed run."""

    ref: str
    run_id: str
    #: the recorded run's total (its manifest summary)
    recorded_total_ms: float
    #: supersteps in the recorded trace, decisions in its ledger
    supersteps: int
    decisions: int
    #: the recording's self-consistency checks, each True/False
    checks: Dict[str, bool]
    #: every check passed and, under an override, the re-run
    #: reproduced the recorded total and every decision — the
    #: ``repro replay --check`` gate
    bit_identical: bool
    #: sealed online RMSRE of the recording, reconstructed
    recorded_rmsre: Optional[float]
    #: the overrides' labels (``None``: not overridden)
    model_label: Optional[str] = None
    topology_label: Optional[str] = None
    #: the re-executed run's total (``None``: nothing was re-run)
    replayed_total_ms: Optional[float] = None
    #: supersteps whose decision differs between the two runs
    decisions_changed: Optional[int] = None
    #: ``runs diff`` of the recording against the re-run
    diff: Optional["RunDiff"] = None

    @property
    def delta_ms(self) -> Optional[float]:
        """Re-executed minus recorded end-to-end virtual time."""
        if self.replayed_total_ms is None:
            return None
        return self.replayed_total_ms - self.recorded_total_ms

    def as_dict(self) -> dict:
        """JSON-friendly payload (``repro replay --json``)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(
            schema=REPLAY_SCHEMA, delta_ms=self.delta_ms,
            diff=None if self.diff is None else self.diff.as_dict(),
        )
        return payload


def _load(registry, ref: str):
    """``(manifest, costs, ledger)`` of a recorded run, parsed once."""
    manifest = registry.load_manifest(ref)
    __, costs = analysis.iteration_costs(registry.load_run_trace(ref))
    try:
        ledger = Ledger.from_dict(registry.load_ledger(ref))
    except ReproError as exc:
        raise ReplayError(
            f"run {manifest.get('id', ref)} has no decision ledger to "
            f"replay ({exc}); replay needs a GUM run recorded with the "
            "ledger enabled"
        ) from exc
    return manifest, costs, ledger


def _invariants(manifest: dict, costs, ledger: Ledger,
                rmsre: Optional[float]) -> Dict[str, bool]:
    """The byte-level checks of a recording."""
    recorded = {cost.iteration for cost in costs}
    return {
        # stored predicted_seconds reconstructs from the samples
        "predicted_seconds": all(
            predicted_critical_seconds(entry["samples"])
            == entry["predicted_seconds"]
            for entry in ledger.entries
        ),
        # the sealed online RMSRE reconstructs from the entries
        "final_rmsre": rmsre == ledger.final_rmsre,
        # the trace holds every superstep the run and its ledger name
        "complete": (
            manifest.get("summary", {}).get("iterations") == len(costs)
            and all(entry["iteration"] in recorded
                    for entry in ledger.entries)
        ),
    }


def _refused(workload: dict, name: str, why: str) -> ReplayError:
    return ReplayError(
        f"cannot re-execute the recording: fingerprint field {name!r} "
        f"({workload.get(name)!r}) {why}"
    )


def _run_request(workload: dict, cost_model, topology):
    """``(cell, gum_config, topology)`` of the ``repro run`` that the
    fingerprint names, with the overrides applied."""
    from repro import config
    from repro.bench.runner import Cell
    from repro.core import GumConfig
    from repro.core.costmodel import resolve_cost_model
    from repro.errors import TopologyError
    from repro.graph.datasets import DATASETS
    from repro.hardware import parse_topology

    for name in _REQUIRED_FIELDS:
        if name not in workload:
            raise _refused(workload, name, "is missing")
    if "chaos" in workload:
        raise _refused(workload, "chaos", "names a fault scenario the "
                       "manifest does not store; re-run it with "
                       "'repro run --chaos SCENARIO.json'")
    for name in workload:
        if name not in _REQUIRED_FIELDS + _OPTIONAL_FIELDS:
            raise _refused(workload, name, "is not one the run path reads")
    if workload["graph"] not in DATASETS:
        raise _refused(workload, "graph", "is not a bundled dataset")
    for name, taken in (("seed", config.DEFAULT_SEED),
                        ("partition_seed", 0)):
        if workload.get(name, taken) != taken:
            raise _refused(workload, name,
                           f"differs from the {taken} the run path uses")
    if cost_model is None:
        cost_model = workload.get("cost_model", "default")
        if cost_model not in ("default", "oracle", "uniform"):
            raise _refused(workload, "cost_model", "labels an artifact "
                           "the manifest does not store; pass its path "
                           "with --cost-model")
    num_gpus = int(workload["num_gpus"])
    if topology is None:
        machine = (parse_topology(workload["topology"])
                   if "topology" in workload else None)
    else:
        try:
            machine = parse_topology(topology, num_gpus)
        except TopologyError as exc:
            raise ReplayError(f"topology override {topology!r}: {exc}") \
                from exc
        if machine.num_gpus != num_gpus:
            raise ReplayError(
                f"topology override carries {machine.num_gpus} GPUs "
                f"but the recorded run used {num_gpus}"
            )
    cell = Cell(workload["engine"], workload["algorithm"],
                workload["graph"], num_gpus, workload["partitioner"])
    gum_config = GumConfig(
        fsteal=workload.get("fsteal", True),
        osteal=workload.get("osteal", True),
        hub_cache=workload.get("hub_cache", True),
        solver=workload["solver"],
        cost_model=resolve_cost_model(cost_model),
        amortize=workload["amortize"],
    )
    return cell, gum_config, machine


def _decisions_changed(recorded, rerun) -> int:
    """Supersteps whose decision differs, or that only one run has."""
    def decisions(entries):
        return {entry["iteration"]: [entry[k] for k in DECISION_FIELDS]
                for entry in entries}

    before, after = decisions(recorded), decisions(rerun)
    return sum(before.get(iteration) != after.get(iteration)
               for iteration in before.keys() | after.keys())


def _reexecute(result: ReplayRunResult, manifest: dict, ledger: Ledger,
               cost_model, topology) -> ReplayRunResult:
    """``result`` completed with the re-run under the overrides."""
    from repro.bench.runner import run_cell
    from repro.core.costmodel import model_label
    from repro.runs.diff import diff_manifests
    from repro.runs.registry import provenance_fingerprint, result_summary

    workload = manifest.get("fingerprint", {}).get("workload", {})
    cell, gum_config, machine = _run_request(workload, cost_model,
                                             topology)
    rerun = run_cell(cell, gum_config=gum_config, topology=machine)
    rerun_workload = dict(workload,
                          cost_model=model_label(gum_config.cost_model))
    if cost_model is not None:
        result.model_label = rerun_workload["cost_model"]
    if topology is not None:
        result.topology_label = machine.name
        rerun_workload["topology"] = (topology if isinstance(topology, str)
                                      else machine.name)
    result.replayed_total_ms = float(rerun.total_ms)
    result.decisions_changed = _decisions_changed(
        ledger.entries, rerun.ledger.entries
    )
    result.diff = diff_manifests(manifest, {
        "id": "re-executed", "kind": "run",
        "fingerprint": {"workload": rerun_workload,
                        "provenance": provenance_fingerprint()},
        "summary": result_summary(rerun),
    }, force=True)
    result.bit_identical = (
        result.bit_identical and result.decisions_changed == 0
        and result.replayed_total_ms == result.recorded_total_ms
    )
    return result


def replay_run(
    registry,
    ref: str,
    cost_model: Optional[Union[str, "CostModel"]] = None,
    topology: Optional[Union[str, "Topology"]] = None,
    tracer: Tracer = NULL_TRACER,
) -> ReplayRunResult:
    """Check one recorded run, or re-execute it under an override.

    ``ref`` is anything ``registry`` resolves (id, prefix, ``latest``,
    or a run directory such as ``benchmarks/reference/tx-bfs-4gpu``).
    ``cost_model`` is anything :func:`repro.core.costmodel.resolve_cost_model`
    accepts; ``topology`` a :func:`repro.hardware.parse_topology`
    selector with the recorded GPU count. Without either nothing is
    re-executed. The run must carry a decision ledger (a GUM run);
    a baseline-engine recording raises :class:`ReplayError`.
    """
    with tracer.span("replay.simulate", cat="replay", ref=str(ref)):
        manifest, costs, ledger = _load(registry, ref)
        rmsre = reconstruct_rmsre(ledger.entries)
        checks = _invariants(manifest, costs, ledger, rmsre)
        result = ReplayRunResult(
            ref=str(ref),
            run_id=str(manifest.get("id", ref)),
            recorded_total_ms=float(manifest.get("summary", {}).get(
                "total_ms", sum(cost.wall_ms for cost in costs))),
            supersteps=len(costs),
            decisions=len(ledger.entries),
            checks=checks,
            bit_identical=all(checks.values()),
            recorded_rmsre=rmsre,
        )
        if cost_model is None and topology is None:
            return result
        return _reexecute(result, manifest, ledger, cost_model, topology)


def format_replay_result(result: ReplayRunResult) -> str:
    """Human-readable replay report (the ``repro replay`` output)."""
    if result.replayed_total_ms is None:
        head = (f"[recording]: {result.recorded_total_ms:.4f} ms over "
                f"{result.supersteps} supersteps")
        verdict = ("bit-identical to the recording" if result.bit_identical
                   else "NOT bit-identical")
    else:
        overrides = ", ".join(
            f"{name}={label}" for name, label in (
                ("model", result.model_label),
                ("topology", result.topology_label),
            ) if label
        )
        head = (f"[{overrides}]: recorded {result.recorded_total_ms:.4f} "
                f"ms, re-executed {result.replayed_total_ms:.4f} ms "
                f"({result.delta_ms:+.4f} ms); {result.decisions_changed} "
                f"of {result.decisions} decisions changed")
        verdict = ("bit-identical to the recording" if result.bit_identical
                   else "the re-execution differs from the recording")
    checks = ", ".join(f"{name}={'ok' if passed else 'FAIL'}"
                       for name, passed in result.checks.items())
    lines = [f"replay {result.run_id} {head}",
             f"  invariants: {checks} -> {verdict}"]
    if result.recorded_rmsre is not None:
        lines.append(f"  recorded model RMSRE: {result.recorded_rmsre:.4f}")
    if result.diff is not None:
        from repro.runs.diff import format_diff

        lines.append(format_diff(result.diff))
    return "\n".join(lines)
