"""The replay simulator: recorded decision sequences, swapped physics.

PR 3's what-if analytics (:mod:`repro.obs.analysis`) re-simulate a
run's span DAG under *hardware* hypotheticals. This module generalizes
that to the quantities the cost-model refit loop cares about:
re-execute a recorded run's decision sequence under a **modified cost
model** (an artifact from ``repro costmodel fit``) and/or a **modified
topology**, and attribute per-iteration virtual-time error — the
model's predicted critical compute against the ledger-measured one —
per superstep and per GPU.

The replay is a pure function of the archived run (trace + ledger), so
it is deterministic, and it is *anchored* by the one rule both replays
share (:func:`repro.obs.analysis.replay_walls`): each iteration's
replayed wall is the recorded wall plus one delta per override,

    replayed_wall(k) = wall(k) + predicted_ms(candidate, k)
                               - predicted_ms(original, k)
                               + communication_ms(k) * (ratio - 1)

where ``predicted_ms`` is :func:`repro.obs.ledger.predicted_critical_seconds`
over the ledger's samples — the stored predictions for the original
model, recomputed with the exact accumulation the arbitrator used — and
``ratio`` is the mean effective interconnect bandwidth of the recorded
machine over the hypothetical one's (exactly 1.0 for an identical
topology). Without an override every delta is identically zero, so the
replayed walls — and their total — are **bit-identical** to the
recording. That is the pinned invariant (``repro replay --check``),
alongside four byte-level checks of the recording itself: the no-op
span-DAG replay reproduces the recorded walls, every stored
``predicted_seconds`` and the sealed online RMSRE reconstruct exactly,
and the trace is complete — it holds as many supersteps as the
manifest counts and one for every ledger entry.

:func:`replay_run` reads as its stages: load, candidate predictions in
one batch, per-decision predicted critical compute, the anchored
walls, invariants, roll-up.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.costmodel import CostModel, model_label, resolve_cost_model
from repro.errors import ReproError, TopologyError
from repro.hardware.topology import Topology, parse_topology
from repro.obs import analysis
from repro.obs.ledger import (
    Ledger,
    OnlineRMSRE,
    counted_errors,
    error_attribution,
    predicted_critical_seconds,
    reconstruct_rmsre,
)
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "REPLAY_SCHEMA",
    "ReplayError",
    "ReplayIteration",
    "ReplayRunResult",
    "format_replay_result",
    "replay_run",
    "resolve_replay_model",
]

REPLAY_SCHEMA = "repro-replay/1"


class ReplayError(ReproError):
    """A recorded run that cannot be replayed (no ledger, bad ref)."""


def resolve_replay_model(spec: Union[str, CostModel]) -> CostModel:
    """:func:`resolve_cost_model` minus what a replay cannot evaluate.

    ``"oracle"`` is rejected — the oracle reads the simulated device,
    which a replay does not have.
    """
    if spec == "oracle":
        raise ReplayError(
            "the oracle model reads the simulated device and cannot "
            "be replayed offline; use 'default', 'uniform', or a "
            "repro-costmodel/1 artifact path"
        )
    return resolve_cost_model(spec)


@dataclass
class ReplayIteration:
    """One superstep of the replay, recorded vs replayed."""

    iteration: int
    recorded_wall_ms: float
    replayed_wall_ms: float
    #: original model's predicted critical compute (from stored samples)
    original_predicted_ms: Optional[float]
    #: candidate model's predicted critical compute (None = no override)
    model_predicted_ms: Optional[float]
    #: ledger-measured critical busy compute
    measured_ms: Optional[float]
    #: recorded-model decision error, (predicted - measured) / measured
    recorded_error: Optional[float]
    #: candidate-model decision error under the same measurement
    model_error: Optional[float]
    samples: int = 0
    communication_delta_ms: float = 0.0

    @property
    def delta_ms(self) -> float:
        """Replayed minus recorded wall for this superstep."""
        return self.replayed_wall_ms - self.recorded_wall_ms

    def as_dict(self) -> dict:
        """JSON-friendly view."""
        return {**asdict(self), "delta_ms": self.delta_ms}


@dataclass
class ReplayRunResult:
    """Outcome of :func:`replay_run` — totals, checks, attribution."""

    ref: str
    run_id: str
    model_label: Optional[str]
    topology_label: Optional[str]
    recorded_total_ms: float
    replayed_total_ms: float
    iterations: List[ReplayIteration]
    #: byte-level invariants of the original-model path, each True/False
    checks: Dict[str, bool]
    #: True iff no override was applied and every check passed — the
    #: ``repro replay --check`` gate
    bit_identical: bool
    #: sealed online RMSRE of the recording
    recorded_rmsre: Optional[float]
    #: RMSRE of the candidate model against the same ledger actuals
    model_rmsre: Optional[float]
    #: per-GPU candidate-model RMSRE (LedgerSamples provenance)
    by_gpu: Dict[int, dict] = field(default_factory=dict)

    @property
    def delta_ms(self) -> float:
        """Replayed minus recorded end-to-end virtual time."""
        return self.replayed_total_ms - self.recorded_total_ms

    def as_dict(self) -> dict:
        """JSON-friendly payload (``repro replay --json``)."""
        return {
            "schema": REPLAY_SCHEMA,
            "ref": self.ref,
            "run_id": self.run_id,
            "model": self.model_label,
            "topology": self.topology_label,
            "recorded_total_ms": float(self.recorded_total_ms),
            "replayed_total_ms": float(self.replayed_total_ms),
            "delta_ms": float(self.delta_ms),
            "bit_identical": bool(self.bit_identical),
            "checks": {k: bool(v) for k, v in self.checks.items()},
            "recorded_rmsre": self.recorded_rmsre,
            "model_rmsre": self.model_rmsre,
            "by_gpu": {
                str(gpu): dict(stats)
                for gpu, stats in sorted(self.by_gpu.items())
            },
            "iterations": [it.as_dict() for it in self.iterations],
        }


def _mean_offdiag_bandwidth(topology: Topology) -> float:
    matrix = topology.effective_bandwidth_matrix()
    n = matrix.shape[0]
    if n < 2:
        return float(matrix[0, 0])
    off = matrix[~np.eye(n, dtype=bool)]
    return float(off.mean())


def _topology_factor(
    manifest: dict, spec: Union[str, Topology]
) -> Tuple[float, str]:
    """Communication scale factor of a topology override.

    Ratio of the recorded machine's mean effective bandwidth to the
    hypothetical one's: halved bandwidth doubles communication time.
    """
    workload = manifest.get("fingerprint", {}).get("workload", {})
    recorded_spec = workload.get("topology", "default")
    num_gpus = workload.get("num_gpus")
    recorded = parse_topology(
        None if recorded_spec in (None, "default") else recorded_spec,
        None if num_gpus is None else int(num_gpus),
    )
    try:
        hypothetical = parse_topology(spec, recorded.num_gpus)
    except TopologyError as exc:
        raise ReplayError(
            f"topology override {spec!r} does not fit the recorded "
            f"run's {recorded.num_gpus} GPUs ({exc}); replay keeps "
            "the recorded decision sequence, so worker counts must "
            "match"
        ) from exc
    if hypothetical.num_gpus != recorded.num_gpus:
        raise ReplayError(
            f"topology override carries {hypothetical.num_gpus} GPUs "
            f"but the recorded run used {recorded.num_gpus}; replay "
            "keeps the recorded decision sequence, so worker counts "
            "must match"
        )
    factor = (
        _mean_offdiag_bandwidth(recorded)
        / _mean_offdiag_bandwidth(hypothetical)
    )
    return float(factor), hypothetical.name


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


def _candidate_predictions(
    model: Optional[CostModel], entries: Dict[int, dict]
) -> Dict[int, np.ndarray]:
    """The candidate model's prediction for every recorded sample, in
    one batch, addressed back by iteration (empty without a model)."""
    if model is None:
        return {}
    rows: List[List[float]] = []
    spans: List[Tuple[int, int, int]] = []
    for iteration, entry in entries.items():
        start = len(rows)
        rows.extend(sample["features"] for sample in entry["samples"])
        spans.append((iteration, start, len(rows)))
    if not rows:
        return {}
    predicted = model.predict(np.asarray(rows, dtype=np.float64))
    return {
        iteration: predicted[start:stop]
        for iteration, start, stop in spans if stop > start
    }


def _predicted_critical(
    entries: Dict[int, dict], predictions: Dict[int, np.ndarray]
) -> Dict[int, Tuple[Optional[float], Optional[float]]]:
    """``(original, candidate)`` predicted critical seconds of every
    decision; the candidate's is ``None`` without a candidate."""
    return {
        iteration: (
            predicted_critical_seconds(entry["samples"]),
            predicted_critical_seconds(
                entry["samples"], predictions[iteration]
            ) if iteration in predictions else None,
        )
        for iteration, entry in entries.items()
    }


def _swap_model(costs, critical: Dict[int, Tuple]) -> List[float]:
    """Wall deltas (ms) when the candidate model's predicted critical
    compute replaces the original's — all zero without a candidate."""
    deltas = []
    for cost in costs:
        original, candidate = critical.get(cost.iteration, (None, None))
        deltas.append(
            0.0 if candidate is None else (candidate - original) * 1e3
        )
    return deltas


def _swap_topology(costs, comm_factor: float) -> List[float]:
    """Wall deltas (ms) when communication and barrier wait rescale by
    the bandwidth ratio — all zero at a ratio of exactly 1."""
    if comm_factor == 1.0:
        return [0.0] * len(costs)
    return [
        (cost.attribution_ms["communication"]
         + cost.attribution_ms["stall"]) * (comm_factor - 1.0)
        for cost in costs
    ]


def _replayed_iteration(
    cost: analysis.IterationCost, wall_ms: float, entry: Optional[dict],
    critical: Tuple, communication_delta_ms: float,
) -> ReplayIteration:
    """One superstep, recorded vs replayed, errors against the
    ledger-measured critical compute."""
    original, candidate = critical
    measured = recorded_error = model_error = None
    if entry is not None and entry["measured"] is not None:
        busy = entry["measured"]["critical_busy_seconds"]
        measured = busy * 1e3
        if original is not None and busy > 0:
            recorded_error = (original - busy) / busy
            if candidate is not None:
                model_error = (candidate - busy) / busy
    return ReplayIteration(
        iteration=cost.iteration,
        recorded_wall_ms=cost.wall_ms,
        replayed_wall_ms=wall_ms,
        original_predicted_ms=None if original is None else original * 1e3,
        model_predicted_ms=None if candidate is None else candidate * 1e3,
        measured_ms=measured,
        recorded_error=recorded_error,
        model_error=model_error,
        samples=0 if entry is None else len(entry["samples"]),
        communication_delta_ms=communication_delta_ms,
    )


def _invariants(manifest: dict, costs, ledger: Ledger,
                entries: Dict[int, dict],
                critical: Dict[int, Tuple]) -> Dict[str, bool]:
    """The byte-level checks of a recording, override or not."""
    recorded = {cost.iteration for cost in costs}
    return {
        # the span-DAG no-op replay reproduces the recorded walls
        "noop_walls": (
            analysis.replay(({}, costs)).wall_ms_series
            == [cost.wall_ms for cost in costs]
        ),
        # stored predicted_seconds reconstructs from the samples
        "predicted_seconds": all(
            critical[iteration][0] == entry["predicted_seconds"]
            for iteration, entry in entries.items()
        ),
        # the sealed online RMSRE reconstructs from the entries
        "final_rmsre": (
            reconstruct_rmsre(ledger.entries) == ledger.final_rmsre
        ),
        # the trace holds every superstep the run and its ledger name
        "complete": (
            manifest.get("summary", {}).get("iterations") == len(costs)
            and all(iteration in recorded for iteration in entries)
        ),
    }


def _candidate_accuracy(
    entries: Dict[int, dict], predictions: Dict[int, np.ndarray]
) -> Tuple[Optional[float], Dict[int, dict]]:
    """The candidate model's RMSRE against the ledger's actuals,
    overall and per GPU (``None`` / empty without a candidate)."""
    online = OnlineRMSRE()
    by_gpu: Dict[int, List[float]] = {}
    for iteration, predicted in predictions.items():
        samples = entries[iteration]["samples"]
        for sample, value in zip(samples, predicted):
            online.update(float(value), sample["actual"])
        for sample, rel in counted_errors(samples, predicted):
            by_gpu.setdefault(sample["worker"], []).append(rel)
    return (
        online.value if online.count else None,
        {int(gpu): stats
         for gpu, stats in error_attribution(by_gpu).items()},
    )


def replay_run(
    registry,
    ref: str,
    cost_model: Optional[Union[str, CostModel]] = None,
    topology: Optional[Union[str, Topology]] = None,
    tracer: Tracer = NULL_TRACER,
) -> ReplayRunResult:
    """Replay one recorded run, optionally under modified physics.

    Parameters
    ----------
    registry:
        A :class:`repro.runs.registry.RunRegistry`; ``ref`` is any
        reference it resolves (id, prefix, ``latest``, or a run
        directory path such as ``benchmarks/reference/tx-bfs-4gpu``).
    cost_model:
        ``None`` replays under the original model (bit-identical by
        construction); otherwise anything
        :func:`resolve_replay_model` accepts.
    topology:
        ``None``, or a :func:`repro.hardware.parse_topology` selector
        to rescale the recorded communication time under.

    Requires the run to carry an archived decision ledger (GUM runs
    with ``GumConfig(ledger=True)``, the default); baseline-engine
    recordings raise :class:`ReplayError`.
    """
    with tracer.span("replay.simulate", cat="replay", ref=str(ref)):
        manifest, costs, ledger = _load(registry, ref)
        entries = {entry["iteration"]: entry for entry in ledger.entries}
        model = (
            None if cost_model is None
            else resolve_replay_model(cost_model)
        )
        comm_factor, topology_label = (
            (1.0, None) if topology is None
            else _topology_factor(manifest, topology)
        )
        predictions = _candidate_predictions(model, entries)
        critical = _predicted_critical(entries, predictions)
        communication = _swap_topology(costs, comm_factor)
        walls = analysis.replay_walls(
            costs, [_swap_model(costs, critical), communication]
        )
        iterations = [
            _replayed_iteration(
                cost, wall, entries.get(cost.iteration),
                critical.get(cost.iteration, (None, None)), comm_delta,
            )
            for cost, wall, comm_delta in zip(costs, walls, communication)
        ]
        checks = _invariants(manifest, costs, ledger, entries, critical)
        recorded_total = float(
            sum(it.recorded_wall_ms for it in iterations)
        )
        replayed_total = float(
            sum(it.replayed_wall_ms for it in iterations)
        )
        model_rmsre, by_gpu = _candidate_accuracy(entries, predictions)
        return ReplayRunResult(
            ref=str(ref),
            run_id=str(manifest.get("id", ref)),
            model_label=None if model is None else model_label(model),
            topology_label=topology_label,
            recorded_total_ms=recorded_total,
            replayed_total_ms=replayed_total,
            iterations=iterations,
            checks=checks,
            bit_identical=(
                model is None and topology is None
                and all(checks.values())
                and replayed_total == recorded_total
            ),
            recorded_rmsre=reconstruct_rmsre(ledger.entries),
            model_rmsre=model_rmsre,
            by_gpu=by_gpu,
        )


def format_replay_result(result: ReplayRunResult) -> str:
    """Human-readable replay report (the ``repro replay`` output)."""
    what = []
    if result.model_label:
        what.append(f"model={result.model_label}")
    if result.topology_label:
        what.append(f"topology={result.topology_label}")
    scenario = ", ".join(what) if what else "original model"
    lines = [
        f"replay {result.run_id} [{scenario}]: "
        f"{result.recorded_total_ms:.4f} ms -> "
        f"{result.replayed_total_ms:.4f} ms "
        f"({result.delta_ms:+.4f} ms over "
        f"{len(result.iterations)} supersteps)",
    ]
    check_text = ", ".join(
        f"{name}={'ok' if passed else 'FAIL'}"
        for name, passed in result.checks.items()
    )
    verdict = (
        "bit-identical to the recording" if result.bit_identical
        else ("not bit-identical (override applied)"
              if (result.model_label or result.topology_label)
              else "NOT bit-identical")
    )
    lines.append(f"  invariants: {check_text} -> {verdict}")
    if result.recorded_rmsre is not None:
        rmsre_bits = [f"recorded {result.recorded_rmsre:.4f}"]
        if result.model_rmsre is not None:
            rmsre_bits.append(f"candidate {result.model_rmsre:.4f}")
        lines.append("  model RMSRE: " + " vs ".join(rmsre_bits))
    if result.by_gpu:
        worst = sorted(
            result.by_gpu.items(),
            key=lambda item: item[1]["rmsre"],
            reverse=True,
        )[:3]
        ranked = ", ".join(
            f"gpu{gpu} (rmsre {stats['rmsre']:.3g}, "
            f"{stats['count']} samples)"
            for gpu, stats in worst
        )
        lines.append(f"  worst-predicted GPUs: {ranked}")
    movers = sorted(
        (it for it in result.iterations if it.delta_ms != 0.0),
        key=lambda it: abs(it.delta_ms),
        reverse=True,
    )[:5]
    for it in movers:
        lines.append(
            f"  iter {it.iteration:>4d}: {it.recorded_wall_ms:.4f} -> "
            f"{it.replayed_wall_ms:.4f} ms ({it.delta_ms:+.4f})"
        )
    return "\n".join(lines)
