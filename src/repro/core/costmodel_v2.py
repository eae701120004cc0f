"""Cost-model v2: train ``g`` from the run registry's own ledgers.

The paper trains its cost model once, offline, on a synthetic corpus
(:func:`repro.core.costmodel.collect_training_data`). This module
closes the stronger feedback loop: every GUM run already records one
prediction-audit sample per fragment per iteration in its decision
ledger — ``(frontier features, predicted, measured per-edge cost)`` in
exact RMSRE feed order — so a registry of recorded runs *is* a
training corpus for the workloads actually being run.

Three pieces:

* :func:`harvest` walks the run registry (or an explicit list of run
  references, including the committed ``benchmarks/reference``
  directories), extracts every positive-actual ledger sample with its
  per-run / per-iteration / per-GPU provenance, and deduplicates runs
  with byte-identical *workload fingerprints* — the virtual clock is
  deterministic given the fingerprint, so a second run of the same
  workload contributes byte-identical samples and would only bias the
  fit. Runs with *different* fingerprints are pooled, never merged:
  each keeps its own provenance row.
* :func:`fit_candidates` trains candidate model families (the shipped
  polynomial, the CART tree, RBF kernel ridge) with k-fold held-out
  RMSRE reporting, always scoring the shipped pretrained polynomial on
  the *same* held-out folds as the baseline to beat.
* :func:`save_artifact` / :func:`load_artifact` package a fitted model
  as a versioned ``repro-costmodel/1`` JSON artifact — weights plus
  fit provenance — loadable anywhere a cost model is accepted:
  ``repro.run(cost_model="model.json")``, ``--cost-model model.json``,
  or ``GumConfig(cost_model=...)``.

The CLI wrapper is ``repro costmodel fit --from-runs``; the validation
counterpart (re-execute a recorded trace under a candidate model) is
:mod:`repro.replay`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.costmodel import (
    MODEL_FAMILIES,
    CostModel,
    DecisionTreeModel,
    KernelRidgeModel,
    LinearSGDModel,
    PolynomialSGDModel,
    UniformCostModel,
    pretrained_default,
    rmsre,
)
from repro.documents import load_document
from repro.errors import CostModelError
from repro.obs.ledger import Ledger
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "COSTMODEL_SCHEMA",
    "CANDIDATE_FAMILIES",
    "CorpusRun",
    "HarvestedCorpus",
    "CandidateReport",
    "FitOutcome",
    "harvest",
    "fit_candidates",
    "model_to_params",
    "model_from_params",
    "save_artifact",
    "load_artifact",
    "artifact_label",
]

COSTMODEL_SCHEMA = "repro-costmodel/1"

#: Families ``--model auto`` tries, in evaluation order.
CANDIDATE_FAMILIES = ("polynomial", "tree", "svr")


# ----------------------------------------------------------------------
# Harvesting: run registry -> training corpus
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorpusRun:
    """Provenance of one harvested run."""

    run_id: str
    workload: Dict[str, object]
    model: str
    samples: int
    iterations: int

    def as_dict(self) -> dict:
        """JSON-friendly view."""
        return {
            "run_id": self.run_id,
            "workload": dict(self.workload),
            "model": self.model,
            "samples": self.samples,
            "iterations": self.iterations,
        }


@dataclass
class HarvestedCorpus:
    """Pooled ledger samples with row-level provenance.

    ``features`` (N, 6) and ``costs`` (N,) feed ``CostModel.fit``
    directly; ``iterations``, ``gpus``, and ``run_index`` (an index
    into :attr:`runs`) identify where every row came from.
    """

    features: np.ndarray
    costs: np.ndarray
    iterations: np.ndarray
    gpus: np.ndarray
    run_index: np.ndarray
    runs: List[CorpusRun] = field(default_factory=list)
    #: runs skipped because an earlier run had the same workload
    #: fingerprint (their ledgers are byte-identical by determinism)
    duplicates: List[dict] = field(default_factory=list)
    #: runs skipped because their ledger held no positive-cost sample
    empty_runs: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.costs.size)

    def provenance(self) -> dict:
        """JSON-friendly corpus summary for artifact embedding."""
        return {
            "samples": len(self),
            "runs": [run.as_dict() for run in self.runs],
            "duplicates": [dict(d) for d in self.duplicates],
            "empty_runs": list(self.empty_runs),
        }


def _fingerprint_key(workload: Dict[str, object]) -> str:
    return json.dumps(workload, sort_keys=True)


def harvest(registry, refs: Optional[Sequence[str]] = None,
            tracer: Tracer = NULL_TRACER) -> HarvestedCorpus:
    """Extract a training corpus from recorded runs.

    Parameters
    ----------
    registry:
        A :class:`repro.runs.registry.RunRegistry` (resolves ids,
        prefixes, ``latest``, and filesystem paths such as the
        committed reference directories).
    refs:
        Explicit run references to harvest, in order. ``None`` walks
        every run-kind manifest in the registry, oldest first.

    Runs whose workload fingerprint matches an earlier harvested run
    are skipped and reported in :attr:`HarvestedCorpus.duplicates` —
    the virtual clock is deterministic, so their ledgers are
    byte-identical and pooling them would double-weight one workload.
    Distinct fingerprints are pooled side by side (never merged):
    every sample row keeps its run index. Runs without a ledger, or
    whose ledger holds no positive-cost sample (a run that never
    consulted the model), are skipped and reported too.
    """
    with tracer.span("costmodel.harvest", cat="costmodel"):
        if refs is None:
            manifests = [m for m in registry.manifests()
                         if m.get("kind") == "run"]
            pairs = [(m.get("id", "?"), m.get("id", "?"), m)
                     for m in manifests]
        else:
            pairs = []
            for ref in refs:
                manifest = registry.load_manifest(ref)
                pairs.append(
                    (manifest.get("id", str(ref)), str(ref), manifest)
                )
        seen: Dict[str, str] = {}
        runs: List[CorpusRun] = []
        duplicates: List[dict] = []
        empty_runs: List[str] = []
        features: List[np.ndarray] = []
        costs: List[np.ndarray] = []
        iterations: List[np.ndarray] = []
        gpus: List[np.ndarray] = []
        run_index: List[np.ndarray] = []
        for run_id, ref, manifest in pairs:
            workload = dict(
                manifest.get("fingerprint", {}).get("workload", {})
            )
            key = _fingerprint_key(workload)
            if key in seen:
                duplicates.append(
                    {"run_id": run_id, "duplicate_of": seen[key]}
                )
                continue
            try:
                ledger = Ledger.from_dict(registry.load_ledger(ref))
                samples = ledger.export_samples()
            except Exception:
                # no archived ledger (stateless policy) or an empty
                # one (model never consulted): nothing to harvest
                empty_runs.append(run_id)
                continue
            seen[key] = run_id
            features.append(samples.features)
            costs.append(samples.costs)
            iterations.append(samples.iterations)
            gpus.append(samples.gpus)
            run_index.append(
                np.full(samples.costs.size, len(runs), dtype=np.int64)
            )
            runs.append(CorpusRun(
                run_id=run_id,
                workload=workload,
                model=ledger.model,
                samples=int(samples.costs.size),
                iterations=ledger.num_entries,
            ))
        if not features:
            raise CostModelError(
                "no harvestable runs: every candidate was a duplicate, "
                "unledgered, or sample-free "
                f"({len(duplicates)} duplicates, "
                f"{len(empty_runs)} empty)"
            )
        return HarvestedCorpus(
            features=np.concatenate(features, axis=0),
            costs=np.concatenate(costs),
            iterations=np.concatenate(iterations),
            gpus=np.concatenate(gpus),
            run_index=np.concatenate(run_index),
            runs=runs,
            duplicates=duplicates,
            empty_runs=empty_runs,
        )


# ----------------------------------------------------------------------
# Candidate fitting with held-out RMSRE
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CandidateReport:
    """Held-out accuracy of one candidate family."""

    family: str
    fold_rmsre: Tuple[float, ...]
    cv_rmsre: float

    def as_dict(self) -> dict:
        """JSON-friendly view."""
        return {
            "family": self.family,
            "fold_rmsre": [float(v) for v in self.fold_rmsre],
            "cv_rmsre": float(self.cv_rmsre),
        }


@dataclass
class FitOutcome:
    """A chosen, refit model plus everything the gate needs to judge it."""

    model: CostModel
    family: str
    candidates: Dict[str, CandidateReport]
    baseline: CandidateReport  # the shipped polynomial, same folds
    train_rmsre: float
    train_seconds: float
    folds: int
    holdout_frac: Optional[float]
    seed: int
    corpus: HarvestedCorpus

    @property
    def holdout_rmsre(self) -> float:
        """Held-out RMSRE of the chosen family."""
        return self.candidates[self.family].cv_rmsre

    @property
    def beats_shipped(self) -> bool:
        """Did the chosen family beat the shipped model held out?"""
        return self.holdout_rmsre <= self.baseline.cv_rmsre

    def report(self) -> dict:
        """JSON-friendly fit report (the ``--report`` payload)."""
        return {
            "family": self.family,
            "holdout_rmsre": float(self.holdout_rmsre),
            "shipped_rmsre": float(self.baseline.cv_rmsre),
            "beats_shipped": bool(self.beats_shipped),
            "train_rmsre": float(self.train_rmsre),
            "train_seconds": float(self.train_seconds),
            "folds": int(self.folds),
            "holdout_frac": (
                None if self.holdout_frac is None
                else float(self.holdout_frac)
            ),
            "seed": int(self.seed),
            "candidates": {
                name: report.as_dict()
                for name, report in sorted(self.candidates.items())
            },
            "baseline": self.baseline.as_dict(),
            "corpus": self.corpus.provenance(),
        }


def _splits(n: int, folds: int, holdout_frac: Optional[float],
            seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """(train, test) index pairs: k folds, or one fractional holdout."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    if holdout_frac is not None:
        if not 0.0 < holdout_frac < 1.0:
            raise CostModelError(
                f"holdout fraction must be in (0, 1), got {holdout_frac}"
            )
        cut = max(1, min(n - 1, int(round(n * holdout_frac))))
        return [(order[cut:], order[:cut])]
    if folds < 2 or folds > n:
        raise CostModelError(
            f"need 2 <= folds <= samples, got folds={folds} for "
            f"{n} samples"
        )
    parts = np.array_split(order, folds)
    return [
        (np.concatenate([parts[j] for j in range(folds) if j != k]),
         parts[k])
        for k in range(folds)
    ]


def fit_candidates(
    corpus: HarvestedCorpus,
    model: str = "auto",
    folds: int = 5,
    holdout_frac: Optional[float] = None,
    seed: int = 0,
    tracer: Tracer = NULL_TRACER,
) -> FitOutcome:
    """Cross-validate candidate families, refit the winner on it all.

    ``model`` is a family name from :data:`CANDIDATE_FAMILIES` (or any
    :data:`repro.core.costmodel.MODEL_FAMILIES` member), or ``"auto"``
    to pick the family with the lowest held-out RMSRE. The shipped
    pretrained polynomial is always evaluated (without refitting) on
    the identical held-out folds, so ``outcome.beats_shipped`` is an
    apples-to-apples verdict.
    """
    if model == "auto":
        families = list(CANDIDATE_FAMILIES)
    elif model in MODEL_FAMILIES:
        families = [model]
    else:
        raise CostModelError(
            f"unknown model family {model!r}; known: auto, "
            + ", ".join(sorted(MODEL_FAMILIES))
        )
    X, y = corpus.features, corpus.costs
    splits = _splits(len(corpus), folds, holdout_frac, seed)
    shipped = pretrained_default()
    candidates: Dict[str, CandidateReport] = {}
    baseline_folds: List[float] = []
    with tracer.span("costmodel.crossval", cat="costmodel",
                     families=",".join(families),
                     samples=len(corpus)):
        for train, test in splits:
            baseline_folds.append(
                rmsre(shipped.predict(X[test]), y[test])
            )
        for family in families:
            fold_scores = []
            for train, test in splits:
                candidate = MODEL_FAMILIES[family]()
                candidate.fit(X[train], y[train])
                fold_scores.append(
                    rmsre(candidate.predict(X[test]), y[test])
                )
            candidates[family] = CandidateReport(
                family=family,
                fold_rmsre=tuple(fold_scores),
                cv_rmsre=float(np.mean(fold_scores)),
            )
    baseline = CandidateReport(
        family="shipped-polynomial",
        fold_rmsre=tuple(baseline_folds),
        cv_rmsre=float(np.mean(baseline_folds)),
    )
    winner = min(candidates, key=lambda name: candidates[name].cv_rmsre)
    final = MODEL_FAMILIES[winner]()
    with tracer.span("costmodel.fit", cat="costmodel",
                     model=final.name, samples=len(corpus)) as span:
        fit_report = final.fit(X, y)
        span.set(train_rmsre=fit_report.train_rmsre,
                 train_seconds=fit_report.train_seconds)
    return FitOutcome(
        model=final,
        family=winner,
        candidates=candidates,
        baseline=baseline,
        train_rmsre=fit_report.train_rmsre,
        train_seconds=fit_report.train_seconds,
        folds=len(splits) if holdout_frac is None else 1,
        holdout_frac=holdout_frac,
        seed=seed,
        corpus=corpus,
    )


# ----------------------------------------------------------------------
# The repro-costmodel/1 artifact
# ----------------------------------------------------------------------
def _require(params: dict, *keys: str) -> list:
    missing = [key for key in keys if key not in params]
    if missing:
        raise CostModelError(
            f"cost-model artifact parameters missing {missing}"
        )
    return [params[key] for key in keys]


def model_to_params(model: CostModel) -> Tuple[str, dict]:
    """``(family, parameters)`` of a fitted model, JSON-ready."""
    if isinstance(model, PolynomialSGDModel):  # LinearSGD subclasses it
        if model._weights is None:
            raise CostModelError("cannot serialize an unfitted model")
        family = "linear" if model._degree == 1 else "polynomial"
        return family, {
            "degree": int(model._degree),
            "weights": model._weights.tolist(),
            "scaler_mean": model._scaler.mean.tolist(),
            "scaler_std": model._scaler.std.tolist(),
            "design_mean": model._design_scaler.mean.tolist(),
            "design_std": model._design_scaler.std.tolist(),
        }
    if isinstance(model, DecisionTreeModel):
        if not model._nodes:
            raise CostModelError("cannot serialize an unfitted model")
        if model._node_feature is None:
            model._columnize()
        return "tree", {
            "node_feature": model._node_feature.tolist(),
            "node_value": model._node_value.tolist(),
            "node_left": model._node_left.tolist(),
            "node_right": model._node_right.tolist(),
        }
    if isinstance(model, KernelRidgeModel):
        if model._coef is None or model._support is None:
            raise CostModelError("cannot serialize an unfitted model")
        return "svr", {
            "support": model._support.tolist(),
            "coef": model._coef.tolist(),
            "gamma": float(model._gamma),
            "scaler_mean": model._scaler.mean.tolist(),
            "scaler_std": model._scaler.std.tolist(),
        }
    if isinstance(model, UniformCostModel):
        return "uniform", {"cost_seconds": float(model._cost)}
    raise CostModelError(
        f"cannot serialize a {type(model).__name__} into a "
        f"{COSTMODEL_SCHEMA} artifact"
    )


def model_from_params(family: str, params: dict) -> CostModel:
    """Rebuild a fitted model from artifact parameters."""
    if family in ("polynomial", "linear"):
        (degree, weights, scaler_mean, scaler_std, design_mean,
         design_std) = _require(
            params, "degree", "weights", "scaler_mean", "scaler_std",
            "design_mean", "design_std",
        )
        model = (LinearSGDModel() if int(degree) == 1
                 else PolynomialSGDModel(degree=int(degree)))
        model._weights = np.asarray(weights, dtype=np.float64)
        model._scaler.mean = np.asarray(scaler_mean, dtype=np.float64)
        model._scaler.std = np.asarray(scaler_std, dtype=np.float64)
        model._design_scaler.mean = np.asarray(
            design_mean, dtype=np.float64
        )
        model._design_scaler.std = np.asarray(
            design_std, dtype=np.float64
        )
        return model
    if family == "tree":
        feature, value, left, right = _require(
            params, "node_feature", "node_value", "node_left",
            "node_right",
        )
        model = DecisionTreeModel()
        model._node_feature = np.asarray(feature, dtype=np.int64)
        model._node_value = np.asarray(value, dtype=np.float64)
        model._node_left = np.asarray(left, dtype=np.int64)
        model._node_right = np.asarray(right, dtype=np.int64)
        model._nodes = [
            (int(f), float(v), int(lo), int(hi))
            for f, v, lo, hi in zip(
                model._node_feature, model._node_value,
                model._node_left, model._node_right,
            )
        ]
        return model
    if family == "svr":
        support, coef, gamma, scaler_mean, scaler_std = _require(
            params, "support", "coef", "gamma", "scaler_mean",
            "scaler_std",
        )
        model = KernelRidgeModel()
        model._support = np.asarray(support, dtype=np.float64)
        model._coef = np.asarray(coef, dtype=np.float64)
        model._gamma = float(gamma)
        model._scaler.mean = np.asarray(scaler_mean, dtype=np.float64)
        model._scaler.std = np.asarray(scaler_std, dtype=np.float64)
        return model
    if family == "uniform":
        (cost_seconds,) = _require(params, "cost_seconds")
        return UniformCostModel(cost_seconds=float(cost_seconds))
    raise CostModelError(
        f"unsupported cost-model artifact family {family!r}"
    )


def _params_digest(family: str, params: dict) -> str:
    payload = json.dumps(
        {"family": family, "parameters": params}, sort_keys=True
    )
    return hashlib.sha1(payload.encode()).hexdigest()


def artifact_label(artifact: dict) -> str:
    """Stable identity string: ``artifact:<family>@<digest8>``.

    Derived from the serialized parameters only — two machines that
    fit the same model get the same label, and the label (not the
    filesystem path) joins a run's workload fingerprint so recorded
    runs stay comparable across checkouts.
    """
    return (
        f"artifact:{artifact['family']}"
        f"@{artifact['digest'][:8]}"
    )


def save_artifact(model: CostModel, path,
                  provenance: Optional[dict] = None) -> dict:
    """Write a fitted model as a ``repro-costmodel/1`` JSON artifact.

    Returns the artifact dict that was written. ``provenance`` is an
    arbitrary JSON block (``FitOutcome.report()`` in the CLI flow).
    """
    family, params = model_to_params(model)
    artifact = {
        "schema": COSTMODEL_SCHEMA,
        "family": family,
        "digest": _params_digest(family, params),
        "parameters": params,
        "provenance": dict(provenance or {}),
    }
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return artifact


def load_artifact(path) -> CostModel:
    """Load a ``repro-costmodel/1`` artifact into a usable model.

    The returned model carries ``artifact`` (the full payload) and
    ``artifact_label`` attributes, so ledgers and workload
    fingerprints can name it stably.
    """
    artifact = load_document(
        path, COSTMODEL_SCHEMA, CostModelError, "cost-model artifact"
    )
    family = artifact.get("family")
    params = artifact.get("parameters")
    if not isinstance(params, dict):
        raise CostModelError(
            f"{path}: cost-model artifact has no parameters object"
        )
    digest = artifact.get("digest")
    expected = _params_digest(family, params)
    if digest != expected:
        raise CostModelError(
            f"{path}: artifact digest mismatch (stored {digest!r}, "
            f"parameters hash to {expected!r}) — corrupted or "
            "hand-edited artifact"
        )
    model = model_from_params(family, params)
    model.artifact = artifact
    model.artifact_label = artifact_label(artifact)
    return model
