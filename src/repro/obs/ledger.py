"""Per-decision ledger: steal explainability and prediction audit.

The paper's Exp-7 links cost-model accuracy to steal-policy quality,
but an aggregate RMSRE cannot say *which* decision the model got wrong.
This module records one entry per arbitrator decision — the quantized
feature vector it saw, the candidate set it weighed, the plan it chose,
the plan-cache status (``live``/``warm``/``cached``, or ``declined``
when a certified bound proved the gate would reject), the predicted
virtual cost, and the measured cost back-filled when the iteration
completes — plus derived analytics: per-iteration and online RMSRE
timeseries, EWMA drift detection on the prediction error, and
per-GPU/per-fragment error attribution.

Everything recorded is a virtual-clock or model quantity, so two runs
of the same workload produce byte-identical ledgers (the property the
committed golden ledger in ``benchmarks/reference`` gates). Recording
never touches the arbitrator's modeled overhead or its decisions: the
ledger observes the physics, it does not perturb them.

The stored schema is versioned (``repro-ledger/1``) and JSON-stable.
:meth:`Ledger.export_samples` emits the ``(features -> measured cost)``
training pairs a ``costmodel fit --from-runs`` harvester needs, and
:func:`reconstruct_rmsre` replays the audit's online RMSRE
bit-identically from the entries alone — ``repro explain`` checks that
equality on every render.

The prediction audit of a run is one :class:`PredictionAudit` the
arbitrator's run state owns and the ledger and the ``costmodel.*`` /
``ledger.*`` gauges share: a decision appends references only, and
the first read (the arbitrator's ``finish_run`` when a registry is
attached, else :attr:`Ledger.entries` / :attr:`Ledger.samples` /
:attr:`Ledger.final_rmsre` / :meth:`Ledger.as_dict`) scores the whole
run in one batch. A run nothing reads is never scored.

The fold over audit samples lives here once, for every reader of a
recorded run (analytics, ``from_dict``, ``repro explain``,
:mod:`repro.replay`): :func:`relative_error` is the skip rule,
:func:`counted_errors` walks a sample list with it,
:func:`predicted_critical_seconds` is the fold behind an entry's
``predicted_seconds``, :func:`error_attribution` the per-key roll-up,
and the running RMSRE is the audit's ``OnlineRMSRE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.errors import ReproError
from repro.obs.metrics import quantile

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

# Reading a ledger back (``repro explain``) needs no NumPy; only the
# recording side and export_samples import it.

__all__ = [
    "LEDGER_SCHEMA",
    "DRIFT_ALPHA",
    "DRIFT_WARMUP",
    "AuditRecord",
    "Ledger",
    "LedgerError",
    "LedgerSamples",
    "OnlineRMSRE",
    "PredictionAudit",
    "counted_errors",
    "error_attribution",
    "explain_lines",
    "predicted_critical_seconds",
    "reconstruct_rmsre",
    "relative_error",
]

LEDGER_SCHEMA = "repro-ledger/1"

#: EWMA smoothing factor of the drift detector.
DRIFT_ALPHA = 0.3

#: Iterations before the drift z-score starts reporting (the EWMA
#: mean/variance are meaningless on the first few samples).
DRIFT_WARMUP = 5

#: Zero-variance mismatch clamp — kept finite so stored ledgers stay
#: strict JSON (no ``Infinity`` literals in committed goldens).
_DRIFT_CLAMP = 1e9


class LedgerError(ReproError):
    """Malformed, missing, or unusable decision-ledger payload."""


class LedgerSamples(NamedTuple):
    """Positive-actual audit samples, aligned row for row.

    ``features`` (N, 6) and ``costs`` (N,) are the training pairs;
    ``iterations`` and ``gpus`` carry each sample's provenance — the
    superstep it was recorded in and the worker that owned the
    fragment — in the exact order the audit folded its online RMSRE.
    """

    features: np.ndarray
    costs: np.ndarray
    iterations: np.ndarray
    gpus: np.ndarray


def relative_error(predicted: float, actual: float) -> Optional[float]:
    """``(predicted - actual) / actual`` of one audit sample; ``None``
    for a non-positive actual, which every accuracy statistic skips
    (the rule :class:`OnlineRMSRE` applies)."""
    if actual <= 0:
        return None
    return (predicted - actual) / actual


class OnlineRMSRE:
    """Streaming RMSRE over (predicted, actual) pairs.

    The deployment-time counterpart of
    :func:`repro.core.costmodel.rmsre`: the arbitrator
    feeds it one sample per fragment per iteration, so observability
    can report how well the learned ``g`` tracks ground truth *during*
    a run (Exp-7's accuracy/policy-quality link, live).
    """

    __slots__ = ("count", "skipped", "_sum_sq")

    def __init__(self) -> None:
        self.count = 0
        self.skipped = 0
        self._sum_sq = 0.0

    def update(self, predicted: float, actual: float) -> None:
        """Add one sample; non-positive actuals are counted as skipped.

        A relative error against a zero (or negative) ground truth is
        undefined, so such samples cannot enter the statistic — but
        they are not silently lost: ``skipped`` counts them for the
        run summary and the decision ledger.
        """
        if actual <= 0:
            self.skipped += 1
            return
        self.count += 1
        self._sum_sq += ((predicted - actual) / actual) ** 2

    @property
    def value(self) -> float:
        """Current RMSRE (0.0 before any sample)."""
        if self.count == 0:
            return 0.0
        return math.sqrt(self._sum_sq / self.count)

    def __repr__(self) -> str:
        return (
            f"OnlineRMSRE(value={self.value:.4f}, n={self.count}, "
            f"skipped={self.skipped})"
        )


def counted_errors(samples: Sequence[dict]) -> Iterator[Tuple[dict, float]]:
    """``(sample, relative error)`` of every counted sample, in feed
    order."""
    for sample in samples:
        rel = relative_error(sample["predicted"], sample["actual"])
        if rel is not None:
            yield sample, rel


def predicted_critical_seconds(samples: Sequence[dict]) -> Optional[float]:
    """Max over per-worker sums of ``predicted * edges``: the model's
    predicted critical compute under the ownership it was consulted
    with. The stored predictions reproduce an entry's
    ``predicted_seconds`` bit for bit."""
    per_worker: Dict[int, float] = {}
    for sample in samples:
        worker = sample["worker"]
        per_worker[worker] = (
            per_worker.get(worker, 0.0)
            + sample["predicted"] * sample["edges"]
        )
    if not per_worker:
        return None
    return float(max(per_worker.values()))


def error_attribution(groups: Dict[int, List[float]]) -> Dict[str, dict]:
    """Per-key error statistics (keys stringified for JSON stability)."""
    out = {}
    for key in sorted(groups):
        rels = groups[key]
        out[str(key)] = {
            "count": len(rels),
            "rmsre": float(
                math.sqrt(sum(r * r for r in rels) / len(rels))
            ),
            "mean_abs_rel_error": float(
                sum(abs(r) for r in rels) / len(rels)
            ),
        }
    return out


def _replay_online(entries: Sequence[dict]) -> OnlineRMSRE:
    """The audit's accuracy tracker, re-fed from ledger entries."""
    online = OnlineRMSRE()
    for entry in entries:
        for sample in entry["samples"]:
            online.update(sample["predicted"], sample["actual"])
    return online


def reconstruct_rmsre(entries: Sequence[dict]) -> Optional[float]:
    """Replay the audit's online RMSRE from ledger entries alone.

    Feeds every sample, in recorded order, to the same
    :class:`OnlineRMSRE` the audit folds, so
    the result is bit-identical to its final value. ``None`` when no
    sample was counted.
    """
    online = _replay_online(entries)
    return online.value if online.count else None


@dataclass(slots=True)
class AuditRecord:
    """One decision's share of the audit: ``(fragment, worker,
    features, actual)`` references until scored, then ``(..., features,
    predicted, actual)`` samples and the fold's state after them."""

    samples: List[tuple]
    rmsre_online: Optional[float] = None
    drift_z: Optional[float] = None


class PredictionAudit:
    """The run's prediction audit: references now, scored when read.

    A reference carries its ground truth (the superstep's ``g*``,
    which the engine's pricing reads too). :meth:`score`, which every
    reader calls first, predicts everything pending with one
    ``model.edge_costs_seconds`` (bit-identical to single predictions
    by that method's contract) and folds the running
    :class:`OnlineRMSRE` and the EWMA drift z in decision order, so a
    batch one decision wide and one batch per run agree bit for bit.
    """

    def __init__(self, model=None) -> None:
        self.model = model
        self.online = OnlineRMSRE()
        self.last_z = 0.0
        self._pending: List[AuditRecord] = []
        # past-only EWMA drift state over per-decision mean rel. error
        self._drift_mean = 0.0
        self._drift_var = 0.0
        self._drift_n = 0

    def add(self, refs: List[tuple]) -> AuditRecord:
        """Append one decision's ``(fragment, worker, features, g*)``."""
        self._pending.append(AuditRecord(refs))
        return self._pending[-1]

    def score(self) -> "PredictionAudit":
        """Score and fold every pending record, in the order added."""
        pending, self._pending = self._pending, []
        if not pending:
            return self
        features = [ref[2] for record in pending for ref in record.samples]
        predicted = iter(self.model.edge_costs_seconds(features))
        online = self.online
        for record in pending:
            record.samples = [
                (fragment, worker, feats, next(predicted), actual)
                for fragment, worker, feats, actual in record.samples
            ]
            signed, counted = 0.0, 0
            for sample in record.samples:
                online.update(sample[3], sample[4])
                rel = relative_error(sample[3], sample[4])
                if rel is not None:
                    signed += rel
                    counted += 1
            if online.count:
                record.rmsre_online = online.value
            if counted:
                record.drift_z = self._drift_update(signed / counted)
        return self

    def _drift_update(self, x: float) -> float:
        """Past-only EWMA z-score of the mean signed relative error."""
        if self._drift_n < DRIFT_WARMUP:
            z = 0.0
        elif self._drift_var <= 0.0:
            z = 0.0 if x == self._drift_mean else math.copysign(
                _DRIFT_CLAMP, x - self._drift_mean
            )
        else:
            z = (x - self._drift_mean) / math.sqrt(self._drift_var)
        delta = x - self._drift_mean
        self._drift_mean += DRIFT_ALPHA * delta
        self._drift_var = (1.0 - DRIFT_ALPHA) * (
            self._drift_var + DRIFT_ALPHA * delta * delta
        )
        self._drift_n += 1
        self.last_z = float(z)
        return self.last_z


def _opt_float(value) -> Optional[float]:
    return None if value is None else float(value)


#: Nested objects of a ``repro-ledger/1`` entry as ``(key, cast)`` in
#: the order the ``record_*`` calls take them: what ``_materialize``
#: writes and ``from_dict`` checks.
_OSTEAL = (
    ("group_size", int), ("prev_group_size", int), ("candidates", int),
    ("evaluated_sizes", int), ("reused_sizes", int),
    ("estimated_cost", float), ("estimated_kernel", float),
    ("p_estimate", float),
)
_FSTEAL = (
    ("solver", str), ("cache_status", str), ("objective", _opt_float),
    ("warm_started", bool), ("static_makespan", _opt_float),
    ("gain", _opt_float), ("modeled_overhead", float),
    ("rejected_by_gate", bool),
)
_MEASURED = (
    ("wall_seconds", float), ("critical_busy_seconds", float),
    ("compute_seconds", float), ("num_active", int),
)
_NESTED_KEYS = {
    name: frozenset(key for key, __ in schema)
    for name, schema in (
        ("osteal", _OSTEAL), ("fsteal", _FSTEAL), ("measured", _MEASURED),
    )
}
_ENTRY_KEYS = frozenset((
    "iteration", "fingerprint", "workloads", "osteal", "fsteal",
    "cache_status", "samples", "skipped", "predicted_seconds",
    "rmsre_iteration", "rmsre_online", "drift_z", "group_size",
    "active_workers", "fsteal_applied", "stolen_edges",
    "migrated_vertices", "measured", "decision_error",
))
_SAMPLE_KEYS = frozenset((
    "fragment", "worker", "edges", "features", "predicted", "actual",
))
_SAMPLE_NUMBERS = ("fragment", "worker", "edges", "predicted", "actual")
_FAULT_KEYS = frozenset(("iteration", "kind", "worker", "heir"))


def _typed(schema, values: Optional[tuple]) -> Optional[dict]:
    """The schema dict of one recorded tuple (``None`` stays ``None``)."""
    if values is None:
        return None
    return {key: cast(value) for (key, cast), value in zip(schema, values)}


def _checked(obj, keys, where: str, numeric: Sequence[str] = ()) -> dict:
    """``obj`` if it is a JSON object carrying ``keys``, with numbers
    under the ``numeric`` ones; a :class:`LedgerError` otherwise."""
    if not isinstance(obj, dict):
        raise LedgerError(f"{where} is not a JSON object")
    if not obj.keys() >= keys:
        missing = ", ".join(sorted(key for key in keys if key not in obj))
        raise LedgerError(f"{where} is missing {missing}")
    for key in numeric:
        if type(obj[key]) not in (int, float):  # bool is not a number
            raise LedgerError(
                f"{where}: {key} is not a number: {obj[key]!r}"
            )
    return obj


def _checked_entry(entry, position: int) -> dict:
    """A copy of one stored entry once its shape is known good, so a
    hand-edited or truncated ledger fails here and not inside a reader."""
    where = f"ledger entry {position}"
    _checked(entry, _ENTRY_KEYS, where)
    _checked(entry, _ENTRY_KEYS, where, ["iteration"] + [
        key for key in ("predicted_seconds", "drift_z", "decision_error")
        if entry[key] is not None
    ])
    for key, nested_keys in _NESTED_KEYS.items():
        if entry[key] is not None:
            _checked(entry[key], nested_keys, f"{where}: {key}")
    if not isinstance(entry["samples"], list):
        raise LedgerError(f"{where}: samples is not a list")
    sample_where = f"{where}: sample"
    for sample in entry["samples"]:
        _checked(sample, _SAMPLE_KEYS, sample_where, _SAMPLE_NUMBERS)
    return dict(entry)


@dataclass(slots=True)
class _RawEntry:
    """One iteration's recording, exactly as the arbitrator handed it.

    Recording runs inside the engine's measured wall time, so the hot
    path stores references and tuples only; :meth:`Ledger._materialize`
    turns a raw entry into the JSON-stable schema dict the first time
    anything reads :attr:`Ledger.entries`, which also scores the
    entry's :class:`AuditRecord`.
    """

    iteration: int
    workloads: list
    audit: AuditRecord
    fingerprint: Optional[tuple]
    osteal: Optional[tuple] = None
    fsteal: Optional[tuple] = None
    commit_args: Optional[tuple] = None
    measured: Optional[tuple] = None


class Ledger:
    """Append-only per-decision record of one arbitrator's run.

    The scheduler drives the per-iteration recording protocol —
    :meth:`begin`, the ``record_*`` calls, :meth:`commit` — inside its
    ``plan`` hook, back-fills the measured cost from ``observe`` via
    :meth:`backfill`, attributes injected faults via
    :meth:`record_fault`; :attr:`final_rmsre`, scored when read, is
    what post-hoc reconstruction is verified against.

    Recording appends raw tuples; the audit scoring, the schema dicts
    and the fingerprint quantization happen on the first read of
    :attr:`entries`, which keeps the in-run recording cost inside
    the observability budget the ``obs.ledger_overhead`` benches pin.
    Non-positive actuals stay in the entries, counted by ``skipped``.
    """

    def __init__(self, model: str = "default",
                 amortize: bool = True,
                 fingerprint_tolerance: float = 0.05,
                 audit: Optional[PredictionAudit] = None) -> None:
        self.model = str(model)
        self.amortize = bool(amortize)
        self.fingerprint_tolerance = float(fingerprint_tolerance)
        self.faults: List[dict] = []
        self._loaded = False
        self._stored_rmsre: Optional[float] = None
        self._audit = PredictionAudit() if audit is None else audit
        self._open: Optional[_RawEntry] = None
        self._raw: List[_RawEntry] = []
        self._entries: Optional[List[dict]] = None
        #: (entries, (samples, skipped), analytics) of the last fold
        self._analytics: Optional[tuple] = None
        self._by_iteration: Dict[int, _RawEntry] = {}

    # --- recording protocol (called by the arbitrator) -----------------
    def begin(self, iteration: int, workloads: Sequence[int],
              audit: AuditRecord,
              fingerprint: Optional[tuple] = None) -> None:
        """Open this iteration's entry (quantized inputs snapshot).

        ``audit`` is the decision's record in the ledger's audit.
        ``fingerprint`` is ``(fragment features, workload list)``; their
        vector is built and log-bucketed when the entries materialize,
        so per-iteration recording does not pay for quantization.
        """
        import numpy as np

        if isinstance(workloads, np.ndarray):
            workloads = workloads.tolist()
        self._open = _RawEntry(int(iteration), workloads, audit, fingerprint)

    def record_osteal(self, group_size: int, prev_group_size: int,
                      candidates: int, evaluated_sizes: int,
                      reused_sizes: int, estimated_cost: float,
                      estimated_kernel: float,
                      p_estimate: float) -> None:
        """The Algorithm-2 evaluation: candidate sizes and the pick."""
        entry = self._open
        if entry is None:
            return
        entry.osteal = (
            group_size, prev_group_size, candidates, evaluated_sizes,
            reused_sizes, estimated_cost, estimated_kernel, p_estimate,
        )

    def record_fsteal(self, solver: str, cache_status: str,
                      objective: Optional[float], warm_started: bool,
                      static_makespan: Optional[float],
                      gain: Optional[float],
                      modeled_overhead: float,
                      rejected_by_gate: bool,
                      lower_bound: Optional[float] = None) -> None:
        """The Algorithm-1 solve: chosen plan, cache status, gate; a
        ``declined`` one has no objective or gain, only its bound."""
        entry = self._open
        if entry is None:
            return
        entry.fsteal = (
            solver, cache_status, objective, warm_started,
            static_makespan, gain, modeled_overhead, rejected_by_gate,
            lower_bound,
        )

    def commit(self, group_size: int, active_workers: Sequence[int],
               fsteal_applied: bool, stolen_edges: int,
               migrated_vertices: int,
               inter_node_stolen_edges: int = 0) -> None:
        """Close the entry with the chosen plan.

        ``inter_node_stolen_edges`` counts the subset of
        ``stolen_edges`` whose home and executing GPUs live on
        different nodes of a hierarchical topology; single-node runs
        leave it 0 and the serialized entry omits the field, keeping
        committed golden ledgers byte-identical.
        """
        entry = self._open
        if entry is None:
            raise LedgerError("commit without begin")
        entry.commit_args = (
            group_size, tuple(active_workers), fsteal_applied,
            stolen_edges, migrated_vertices, inter_node_stolen_edges,
        )
        self._raw.append(entry)
        self._by_iteration[entry.iteration] = entry
        self._open = None
        self._entries = None

    def backfill(self, iteration: int, wall_seconds: float,
                 critical_busy_seconds: float, compute_seconds: float,
                 num_active: int) -> None:
        """Attach the measured virtual cost once the iteration ran."""
        entry = self._by_iteration.get(int(iteration))
        if entry is None:
            return
        entry.measured = (
            wall_seconds, critical_busy_seconds, compute_seconds,
            num_active,
        )
        self._entries = None

    def record_fault(self, iteration: Optional[int], kind: str,
                     worker: Optional[int],
                     heir: Optional[int]) -> None:
        """Attribute an injected fault so evictions leave no gaps."""
        self.faults.append({
            "iteration": None if iteration is None else int(iteration),
            "kind": str(kind),
            "worker": None if worker is None else int(worker),
            "heir": None if heir is None else int(heir),
        })

    @property
    def final_rmsre(self) -> Optional[float]:
        """The audit's final online RMSRE, which post-hoc readers verify
        :func:`reconstruct_rmsre` against: scored when read on a
        recorded run, as stored on a loaded one."""
        if self._loaded:
            return self._stored_rmsre
        online = self._audit.score().online
        return online.value if online.count else None

    # --- materialization -----------------------------------------------
    @property
    def entries(self) -> List[dict]:
        """Schema dicts of every committed decision (lazily built).

        The audit is scored and the raw recordings materialize on first
        access (and again after any later :meth:`commit`/:meth:`backfill`
        — a pure function of the raw state, so rebuilding is safe).
        """
        if self._entries is None:
            self._audit.score()
            self._entries = [self._materialize(raw) for raw in self._raw]
        return self._entries

    def _materialize(self, raw: _RawEntry) -> dict:
        """Schema dict of one raw entry (same arithmetic, same order,
        whatever the batches the audit was scored in — the bit-identity
        the determinism tests pin)."""
        audit = raw.audit
        samples = [
            {
                "fragment": int(fragment),
                "worker": int(worker),
                "edges": int(features.total_edges),
                "features": features.vector().tolist(),
                "predicted": float(predicted),
                "actual": float(actual),
            }
            for fragment, worker, features, predicted, actual
            in audit.samples
        ]
        predicted_seconds = predicted_critical_seconds(samples)
        sq_sum = 0.0
        sq_n = 0
        for __, rel in counted_errors(samples):
            sq_sum += rel * rel
            sq_n += 1
        fsteal = _typed(_FSTEAL, raw.fsteal)
        if fsteal is not None and raw.fsteal[-1] is not None:
            fsteal["lower_bound"] = float(raw.fsteal[-1])
        measured = _typed(_MEASURED, raw.measured)
        decision_error = None
        if measured is not None and predicted_seconds is not None:
            critical = measured["critical_busy_seconds"]
            if critical > 0:
                decision_error = float(
                    (predicted_seconds - critical) / critical
                )
        (group_size, active_workers, fsteal_applied, stolen_edges,
         migrated_vertices, inter_node_stolen) = raw.commit_args
        fingerprint = None
        if raw.fingerprint is not None:
            from repro.core.decision_cache import quantize

            features, workloads = raw.fingerprint
            tolerance = self.fingerprint_tolerance
            fingerprint = quantize([x for f in features for x in f[:6]]
                                   + workloads, tolerance).hex()
        entry = {
            "iteration": raw.iteration,
            "fingerprint": fingerprint,
            "workloads": [int(w) for w in raw.workloads],
            "osteal": _typed(_OSTEAL, raw.osteal),
            "fsteal": fsteal,
            "cache_status": (
                None if fsteal is None else fsteal["cache_status"]
            ),
            "samples": samples,
            "skipped": len(samples) - sq_n,
            "predicted_seconds": predicted_seconds,
            "rmsre_iteration": (
                float(math.sqrt(sq_sum / sq_n)) if sq_n else None
            ),
            "rmsre_online": audit.rmsre_online,
            "drift_z": audit.drift_z,
            "group_size": int(group_size),
            "active_workers": [int(w) for w in active_workers],
            "fsteal_applied": bool(fsteal_applied),
            "stolen_edges": int(stolen_edges),
            "migrated_vertices": int(migrated_vertices),
            "measured": measured,
            "decision_error": decision_error,
        }
        if inter_node_stolen:
            entry["inter_node_stolen_edges"] = int(inter_node_stolen)
        return entry

    # --- queries --------------------------------------------------------
    @property
    def samples(self) -> int:
        """Counted (positive-actual) audit samples so far (scores)."""
        return self._audit.score().online.count

    @property
    def skipped_samples(self) -> int:
        """Recorded samples the accuracy statistics skip (scores)."""
        return self._audit.score().online.skipped

    @property
    def num_entries(self) -> int:
        """Committed decisions so far (no materialization needed)."""
        if self._raw:
            return len(self._raw)
        return len(self._entries) if self._entries is not None else 0

    def entry(self, iteration: int) -> dict:
        """The decision recorded for ``iteration``; the one lookup (and
        the one miss message) behind ``repro explain --iteration``."""
        entries = self.entries
        for entry in entries:
            if entry["iteration"] == iteration:
                return entry
        span = (
            f", iterations {entries[0]['iteration']}.."
            f"{entries[-1]['iteration']}" if entries else ""
        )
        raise LedgerError(
            f"no ledger entry for iteration {iteration} "
            f"(run has {len(entries)} decisions{span})"
        )

    def cache_status_counts(self) -> Dict[str, int]:
        """How many FSteal solves were live, warm-started, or cached."""
        counts = {"live": 0, "warm": 0, "cached": 0}
        for entry in self.entries:
            status = entry["cache_status"]
            if status in counts:
                counts[status] += 1
        return counts

    def export_samples(self) -> "LedgerSamples":
        """Training samples with provenance for cost-model fitting.

        Rows are the recorded 6-entry feature vectors; costs are the
        measured (ground-truth) per-edge seconds, so ``features`` and
        ``costs`` feed ``CostModel.fit`` directly. Each row also
        carries the iteration it was recorded in and the GPU the
        fragment was owned by, so replay error attribution never has
        to re-derive feed order from entry position. Non-positive
        actuals are excluded.
        """
        rows = [
            (sample["features"], sample["actual"], entry["iteration"],
             sample["worker"])
            for entry in self.entries
            for sample, __ in counted_errors(entry["samples"])
        ]
        if not rows:
            raise LedgerError(
                "ledger holds no positive-cost samples to export"
            )
        import numpy as np

        features, costs, iterations, gpus = zip(*rows)
        return LedgerSamples(
            features=np.asarray(features, dtype=np.float64),
            costs=np.asarray(costs, dtype=np.float64),
            iterations=np.asarray(iterations, dtype=np.int64),
            gpus=np.asarray(gpus, dtype=np.int64),
        )

    def analytics(self) -> dict:
        """Derived accuracy analytics over the whole run (JSON-ready).

        Folded once per state of the entries and the audit's counts, so
        a recorded run's summary and its ``ledger.json`` share one fold;
        until that state changes every call returns the same dict.
        """
        entries = self.entries
        counts = (self.samples, self.skipped_samples)
        last = self._analytics
        if last is None or last[0] is not entries or last[1] != counts:
            last = self._analytics = (
                entries, counts, self._fold_analytics(entries, counts),
            )
        return last[2]

    def _fold_analytics(self, entries: List[dict],
                        counts: Tuple[int, int]) -> dict:
        by_fragment: Dict[int, List[float]] = {}
        by_gpu: Dict[int, List[float]] = {}
        for entry in entries:
            for sample, rel in counted_errors(entry["samples"]):
                by_fragment.setdefault(sample["fragment"], []).append(rel)
                by_gpu.setdefault(sample["worker"], []).append(rel)
        errors = [
            abs(entry["decision_error"]) for entry in entries
            if entry["decision_error"] is not None
        ]
        drift = [
            abs(entry["drift_z"]) for entry in entries
            if entry["drift_z"] is not None
        ]
        return {
            "iterations": [e["iteration"] for e in entries],
            "rmsre_series": [e["rmsre_iteration"] for e in entries],
            "rmsre_online_series": [
                e["rmsre_online"] for e in entries
            ],
            "drift_z_series": [e["drift_z"] for e in entries],
            "max_model_drift": max(drift) if drift else 0.0,
            "final_rmsre": reconstruct_rmsre(entries),
            "samples": counts[0],
            "skipped_samples": counts[1],
            "cache_status_counts": self.cache_status_counts(),
            "decision_error": {
                "p50": quantile(errors, 0.50),
                "p90": quantile(errors, 0.90),
                "p99": quantile(errors, 0.99),
                "max": max(errors) if errors else None,
                "count": len(errors),
            },
            "by_fragment": error_attribution(by_fragment),
            "by_gpu": error_attribution(by_gpu),
        }

    def summary(self) -> dict:
        """Compact block for ``result_summary``."""
        analytics = self.analytics()
        counts = analytics["cache_status_counts"]
        return {
            "entries": len(self.entries),
            "samples": analytics["samples"],
            "skipped_samples": analytics["skipped_samples"],
            "live": counts["live"],
            "warm": counts["warm"],
            "cached": counts["cached"],
            "final_rmsre": analytics["final_rmsre"],
            "max_model_drift": analytics["max_model_drift"],
            "decision_error_p99": analytics["decision_error"]["p99"],
            "faults": len(self.faults),
        }

    # --- (de)serialization ----------------------------------------------
    def as_dict(self) -> dict:
        """Versioned JSON-stable payload (entries + analytics)."""
        return {
            "schema": LEDGER_SCHEMA,
            "model": self.model,
            "amortize": self.amortize,
            "final_rmsre": self.final_rmsre,
            "skipped_samples": self.skipped_samples,
            "entries": [dict(entry) for entry in self.entries],
            "faults": [dict(fault) for fault in self.faults],
            "analytics": self.analytics(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Ledger":
        """Rebuild a ledger from :meth:`as_dict` output (validated)."""
        if not isinstance(payload, dict):
            raise LedgerError("ledger payload must be a JSON object")
        schema = payload.get("schema")
        if schema != LEDGER_SCHEMA:
            raise LedgerError(
                f"unsupported ledger schema {schema!r} "
                f"(expected {LEDGER_SCHEMA!r})"
            )
        ledger = cls(
            model=payload.get("model", "default"),
            amortize=bool(payload.get("amortize", True)),
        )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise LedgerError("ledger payload has no entries list")
        faults = payload.get("faults", [])
        if not isinstance(faults, list):
            raise LedgerError("ledger payload's faults is not a list")
        ledger._entries = [
            _checked_entry(entry, position)
            for position, entry in enumerate(entries)
        ]
        ledger.faults = [
            dict(_checked(fault, _FAULT_KEYS, f"ledger fault {position}"))
            for position, fault in enumerate(faults)
        ]
        ledger._loaded = True
        ledger._stored_rmsre = payload.get("final_rmsre")
        ledger._audit.online = _replay_online(ledger.entries)
        return ledger


# ----------------------------------------------------------------------
# Rendering (the `repro explain` CLI)
# ----------------------------------------------------------------------
def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value * 1e3:.3f}ms"


def _fmt_pct(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value * 100:+.1f}%"


def _entry_line(entry: dict) -> str:
    """One-line why-this-steal-happened story for an entry."""
    bits = [f"iter {entry['iteration']:>4d}:"]
    osteal = entry["osteal"]
    if osteal is not None:
        arrow = (
            f"{osteal['prev_group_size']}->{osteal['group_size']}"
            if osteal["group_size"] != osteal["prev_group_size"]
            else f"{osteal['group_size']} (kept)"
        )
        bits.append(
            f"osteal group {arrow} "
            f"[{osteal['evaluated_sizes']} solved/"
            f"{osteal['reused_sizes']} memoized of "
            f"{osteal['candidates']} sizes, "
            f"E={_fmt_seconds(osteal['estimated_cost'])}]"
        )
    fsteal = entry["fsteal"]
    if fsteal is not None:
        if fsteal["cache_status"] == "declined":
            verdict = (
                f"unsolved: bound {_fmt_seconds(fsteal.get('lower_bound'))}"
                f" leaves no gain over overhead "
                f"{_fmt_seconds(fsteal['modeled_overhead'])}"
            )
        elif fsteal["rejected_by_gate"]:
            verdict = (
                f"rejected by gate (gain {_fmt_seconds(fsteal['gain'])} "
                f"<= overhead "
                f"{_fmt_seconds(fsteal['modeled_overhead'])})"
            )
        elif entry["fsteal_applied"]:
            inter = entry.get("inter_node_stolen_edges", 0)
            crossed = f", {inter} inter-node" if inter else ""
            verdict = (
                f"applied, stole {entry['stolen_edges']} edges"
                f"{crossed} (gain {_fmt_seconds(fsteal['gain'])})"
            )
        else:
            verdict = "solved but unused"
        bits.append(
            f"fsteal {fsteal['cache_status']} via {fsteal['solver']}, "
            f"objective {_fmt_seconds(fsteal['objective'])}, {verdict}"
        )
    if osteal is None and fsteal is None:
        bits.append(
            f"no steal evaluated (group {entry['group_size']}, "
            f"owner-local plan)"
        )
    measured = entry["measured"]
    if measured is not None and entry["predicted_seconds"] is not None:
        bits.append(
            f"| predicted {_fmt_seconds(entry['predicted_seconds'])} vs "
            f"measured {_fmt_seconds(measured['critical_busy_seconds'])} "
            f"({_fmt_pct(entry['decision_error'])})"
        )
    return " ".join(bits)


def _sample_lines(entry: dict) -> List[str]:
    lines = [
        "    fragment  gpu      edges     predicted        actual"
        "   rel.err",
    ]
    for sample in entry["samples"]:
        rel = relative_error(sample["predicted"], sample["actual"])
        flag = "" if rel is not None else "  (skipped)"
        lines.append(
            f"    {sample['fragment']:>8d} {sample['worker']:>4d} "
            f"{sample['edges']:>10d} {sample['predicted']:>13.3e} "
            f"{sample['actual']:>13.3e} {_fmt_pct(rel):>9s}{flag}"
        )
    return lines


def explain_lines(ledger: Ledger,
                  iteration: Optional[int] = None) -> List[str]:
    """Render a ledger as the `repro explain` report.

    Without ``iteration``: run-level header, accuracy analytics, the
    reconstruction check, and one line per decision where a steal was
    evaluated. With ``iteration``: that entry in full, including the
    per-fragment prediction audit table.
    """
    analytics = ledger.analytics()
    counts = analytics["cache_status_counts"]
    lines = [
        f"decision ledger: {len(ledger.entries)} decisions, "
        f"model={ledger.model}, "
        f"amortize={'on' if ledger.amortize else 'off'}",
        f"  samples: {analytics['samples']} counted, "
        f"{analytics['skipped_samples']} skipped (non-positive actual)",
        f"  fsteal solves: {counts['live']} live, {counts['warm']} warm, "
        f"{counts['cached']} cached; "
        f"{sum(e['cache_status'] == 'declined' for e in ledger.entries)} "
        f"declined before solving",
    ]
    reconstructed = analytics["final_rmsre"]
    if ledger.final_rmsre is not None and reconstructed is not None:
        match = (
            "bit-identical"
            if reconstructed == ledger.final_rmsre
            else f"MISMATCH vs arbitrator {ledger.final_rmsre!r}"
        )
        lines.append(
            f"  final RMSRE: {reconstructed:.6g} "
            f"(reconstructed from entries: {match})"
        )
    elif reconstructed is not None:
        lines.append(f"  final RMSRE: {reconstructed:.6g}")
    error = analytics["decision_error"]
    if error["count"]:
        lines.append(
            f"  decision error |predicted-measured|/measured: "
            f"p50 {_fmt_pct(error['p50'])}, p90 {_fmt_pct(error['p90'])}, "
            f"p99 {_fmt_pct(error['p99'])} over {error['count']} decisions"
        )
    lines.append(
        f"  model drift: max EWMA z {analytics['max_model_drift']:.3g}"
    )
    worst = sorted(
        analytics["by_fragment"].items(),
        key=lambda item: item[1]["rmsre"],
        reverse=True,
    )[:3]
    if worst and worst[0][1]["rmsre"] > 0:
        ranked = ", ".join(
            f"fragment {key} (rmsre {stats['rmsre']:.3g})"
            for key, stats in worst
        )
        lines.append(f"  worst-predicted: {ranked}")
    for fault in ledger.faults:
        where = (
            "before first decision" if fault["iteration"] is None
            else f"iteration {fault['iteration']}"
        )
        detail = ""
        if fault["worker"] is not None:
            detail = f" worker {fault['worker']}"
            if fault["heir"] is not None:
                detail += f" -> heir {fault['heir']}"
        lines.append(f"  fault: {fault['kind']}{detail} at {where}")

    if iteration is not None:
        entry = ledger.entry(iteration)
        lines.append("")
        lines.append(_entry_line(entry))
        if entry["fingerprint"]:
            lines.append(
                f"    quantized input fingerprint: "
                f"{entry['fingerprint'][:32]}..."
                if len(entry["fingerprint"]) > 32
                else f"    quantized input fingerprint: "
                     f"{entry['fingerprint']}"
            )
        lines.append(
            f"    workloads: {entry['workloads']} -> "
            f"active {entry['active_workers']}"
        )
        if entry["samples"]:
            lines.extend(_sample_lines(entry))
        return lines

    lines.append("")
    decisions = [
        entry for entry in ledger.entries
        if entry["osteal"] is not None or entry["fsteal"] is not None
    ]
    if not decisions:
        lines.append("no steal was evaluated in this run")
    for entry in decisions:
        lines.append(_entry_line(entry))
    return lines
