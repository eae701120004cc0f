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
it is deterministic, and it is *anchored*: each iteration's replayed
wall is the recorded wall with the original model's predicted critical
compute substituted for the candidate model's,

    replayed_wall(k) = wall(k) + predicted_ms(candidate, k)
                               - predicted_ms(original, k)

where ``predicted_ms(original, k)`` is recomputed from the ledger's
*stored* per-sample predictions with the exact accumulation the
arbitrator used. Under the original model the substitution term is
identically zero term by term, so the replayed per-iteration walls —
and their total — are **bit-identical** to the recording. That is the
pinned invariant (``repro replay --check``), alongside two more
byte-level checks: the no-op span-DAG replay reproduces the recorded
walls, and the ledger's sealed online RMSRE reconstructs exactly.

A topology override scales each iteration's communication attribution
by the ratio of mean effective interconnect bandwidth (recorded
machine over hypothetical machine); an identical topology yields a
ratio of exactly 1.0 and changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.costmodel import (
    CostModel,
    model_label,
    resolve_cost_model,
)
from repro.errors import ReproError, TopologyError
from repro.hardware.topology import Topology, parse_topology
from repro.obs import analysis
from repro.obs.ledger import Ledger, reconstruct_rmsre
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
        return {
            "iteration": self.iteration,
            "recorded_wall_ms": float(self.recorded_wall_ms),
            "replayed_wall_ms": float(self.replayed_wall_ms),
            "delta_ms": float(self.delta_ms),
            "original_predicted_ms": _opt(self.original_predicted_ms),
            "model_predicted_ms": _opt(self.model_predicted_ms),
            "measured_ms": _opt(self.measured_ms),
            "recorded_error": _opt(self.recorded_error),
            "model_error": _opt(self.model_error),
            "samples": int(self.samples),
            "communication_delta_ms": float(
                self.communication_delta_ms
            ),
        }


def _opt(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(value)


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
            "recorded_rmsre": _opt(self.recorded_rmsre),
            "model_rmsre": _opt(self.model_rmsre),
            "by_gpu": {
                str(gpu): dict(stats)
                for gpu, stats in sorted(self.by_gpu.items())
            },
            "iterations": [it.as_dict() for it in self.iterations],
        }


def _predicted_critical_seconds(
    samples: List[dict], predictions: Optional[np.ndarray] = None
) -> Optional[float]:
    """Max over per-worker sums of ``predicted * edges``.

    With ``predictions=None`` the stored per-sample predictions are
    used, accumulated in the exact order
    :meth:`repro.obs.ledger.Ledger._materialize` uses — so the result
    is bit-identical to the entry's stored ``predicted_seconds``.
    """
    per_worker: Dict[int, float] = {}
    for position, sample in enumerate(samples):
        predicted = (
            float(sample["predicted"]) if predictions is None
            else float(predictions[position])
        )
        worker = int(sample["worker"])
        per_worker[worker] = (
            per_worker.get(worker, 0.0)
            + predicted * int(sample["edges"])
        )
    if not per_worker:
        return None
    return float(max(per_worker.values()))


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
        manifest = registry.load_manifest(ref)
        run_id = str(manifest.get("id", ref))
        source = registry.load_run_trace(ref)
        try:
            ledger = Ledger.from_dict(registry.load_ledger(ref))
        except ReproError as exc:
            raise ReplayError(
                f"run {run_id} has no decision ledger to replay "
                f"({exc}); replay needs a GUM run recorded with the "
                "ledger enabled"
            ) from exc
        model = (
            None if cost_model is None
            else resolve_replay_model(cost_model)
        )
        comm_factor = 1.0
        topology_label = None
        if topology is not None:
            comm_factor, topology_label = _topology_factor(
                manifest, topology
            )

        __, costs = analysis._costs(source)
        noop = analysis.replay(source)
        entries = {
            entry["iteration"]: entry for entry in ledger.entries
        }

        # candidate-model predictions over every recorded sample, in
        # one batch, addressed back by (iteration, position)
        predictions_by_iteration: Dict[int, np.ndarray] = {}
        if model is not None:
            rows: List[List[float]] = []
            spans: List[Tuple[int, int, int]] = []
            for iteration, entry in entries.items():
                start = len(rows)
                rows.extend(
                    sample["features"] for sample in entry["samples"]
                )
                spans.append((iteration, start, len(rows)))
            if rows:
                predicted = model.predict(
                    np.asarray(rows, dtype=np.float64)
                )
                for iteration, start, stop in spans:
                    predictions_by_iteration[iteration] = (
                        predicted[start:stop]
                    )

        iterations: List[ReplayIteration] = []
        predicted_consistent = True
        sq_sum = 0.0
        sq_n = 0
        by_gpu_rel: Dict[int, List[float]] = {}
        for position, cost in enumerate(costs):
            entry = entries.get(cost.iteration)
            samples = entry["samples"] if entry is not None else []
            original_pred = _predicted_critical_seconds(samples)
            if entry is not None and \
                    original_pred != entry["predicted_seconds"]:
                predicted_consistent = False
            model_pred = None
            model_error = None
            if model is not None and samples:
                predicted = predictions_by_iteration[cost.iteration]
                model_pred = _predicted_critical_seconds(
                    samples, predicted
                )
                for sample, value in zip(samples, predicted):
                    actual = sample["actual"]
                    if actual <= 0:
                        continue
                    rel = (float(value) - actual) / actual
                    sq_sum += rel * rel
                    sq_n += 1
                    by_gpu_rel.setdefault(
                        int(sample["worker"]), []
                    ).append(rel)
            measured = None
            recorded_error = None
            if entry is not None and entry["measured"] is not None:
                critical = entry["measured"]["critical_busy_seconds"]
                measured = critical * 1e3
                if original_pred is not None and critical > 0:
                    recorded_error = (
                        (original_pred - critical) / critical
                    )
                    if model_pred is not None:
                        model_error = (
                            (model_pred - critical) / critical
                        )
            wall = cost.wall_ms
            # model substitution: candidate predicted critical compute
            # replaces the original's; identically zero with no override
            if model_pred is not None and original_pred is not None:
                wall = wall + (model_pred - original_pred) * 1e3
            comm_delta = 0.0
            if comm_factor != 1.0:
                comm = (
                    cost.attribution_ms["communication"]
                    + cost.attribution_ms["stall"]
                )
                comm_delta = comm * (comm_factor - 1.0)
                wall = wall + comm_delta
            iterations.append(ReplayIteration(
                iteration=cost.iteration,
                recorded_wall_ms=cost.wall_ms,
                replayed_wall_ms=max(wall, 0.0),
                original_predicted_ms=(
                    None if original_pred is None
                    else original_pred * 1e3
                ),
                model_predicted_ms=(
                    None if model_pred is None else model_pred * 1e3
                ),
                measured_ms=measured,
                recorded_error=recorded_error,
                model_error=model_error,
                samples=len(samples),
                communication_delta_ms=comm_delta,
            ))

        recorded_total = float(
            sum(it.recorded_wall_ms for it in iterations)
        )
        replayed_total = float(
            sum(it.replayed_wall_ms for it in iterations)
        )
        recorded_rmsre = reconstruct_rmsre(ledger.entries)
        checks = {
            # the span-DAG no-op replay reproduces the recorded walls
            "noop_walls": (
                noop.wall_ms_series
                == [c.wall_ms for c in costs]
            ),
            # stored predicted_seconds reconstructs from the samples
            "predicted_seconds": predicted_consistent,
            # the sealed online RMSRE reconstructs from the entries
            "final_rmsre": (
                recorded_rmsre == ledger.final_rmsre
            ),
        }
        overridden = model is not None or topology is not None
        bit_identical = (
            not overridden
            and all(checks.values())
            and replayed_total == recorded_total
        )
        by_gpu = {
            gpu: {
                "count": len(rels),
                "rmsre": float(np.sqrt(
                    sum(r * r for r in rels) / len(rels)
                )),
                "mean_abs_rel_error": float(
                    sum(abs(r) for r in rels) / len(rels)
                ),
            }
            for gpu, rels in by_gpu_rel.items()
        }
        return ReplayRunResult(
            ref=str(ref),
            run_id=run_id,
            model_label=None if model is None else model_label(model),
            topology_label=topology_label,
            recorded_total_ms=recorded_total,
            replayed_total_ms=replayed_total,
            iterations=iterations,
            checks=checks,
            bit_identical=bit_identical,
            recorded_rmsre=recorded_rmsre,
            model_rmsre=(
                float(np.sqrt(sq_sum / sq_n)) if sq_n else None
            ),
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
