"""Offline production of cost models: everything that *fits* ``g``.

The run-time side (:mod:`repro.core.costmodel`) only ever evaluates a
model; this module is where models come from, in the paper's order:

* :func:`default_training_corpus` / :func:`collect_training_data` /
  :func:`train_default` — replay GAS algorithms over a generator zoo
  and fit the degree-4 polynomial on the logs (Section III-B). Its
  output is the committed ``default_costmodel.json`` artifact that
  :func:`repro.core.costmodel.pretrained_default` loads; nothing at
  run time calls it.
* :func:`harvest` — every GUM run records one prediction-audit sample
  per fragment per iteration in its decision ledger, so a registry of
  recorded runs (or the committed ``benchmarks/reference``
  directories) *is* a training corpus for the workloads actually being
  run. Runs with byte-identical *workload fingerprints* are
  deduplicated — the virtual clock is deterministic, so a second run
  contributes byte-identical samples and would only bias the fit;
  distinct fingerprints are pooled, never merged.
* :func:`fit_candidates` — k-fold held-out RMSRE over the candidate
  families, always scoring the shipped model on the *same* folds as
  the baseline to beat.

The CLI wrapper is ``repro costmodel fit --from-runs``; the validation
counterpart (re-execute a recorded trace under a candidate model) is
:mod:`repro.replay`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import make_algorithm
from repro.core.costmodel import (
    MODEL_FAMILIES,
    CostModel,
    PolynomialSGDModel,
    pretrained_default,
    rmsre,
)
from repro.errors import CostModelError, ReproError
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.features import FrontierFeatures, frontier_features
from repro.hardware.device import DeviceModel
from repro.obs.ledger import Ledger
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.partition.partitioners import random_partition

__all__ = [
    "CANDIDATE_FAMILIES",
    "CorpusRun",
    "HarvestedCorpus",
    "CandidateReport",
    "FitOutcome",
    "collect_training_data",
    "default_training_corpus",
    "train_default",
    "harvest",
    "fit_candidates",
]

#: Families ``--model auto`` tries, in evaluation order.
CANDIDATE_FAMILIES = ("polynomial", "tree", "svr")


# ----------------------------------------------------------------------
# The synthetic corpus behind the shipped default
# ----------------------------------------------------------------------
def collect_training_data(
    graphs: Sequence[CSRGraph],
    algorithms: Sequence[str] = ("bfs", "sssp", "wcc", "pr"),
    num_fragments: int = 8,
    device: Optional[DeviceModel] = None,
    seed: int = 0,
    max_iterations: int = 300,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay algorithms over graphs and log (features, observed cost).

    Each iteration of each algorithm on each graph contributes one
    sample per fragment with a non-empty frontier, exactly as the paper
    treats "the running log of each iteration as independent training
    samples". Observed cost is the device model's ground truth —
    including its measurement pseudo-noise.
    """
    device = device or DeviceModel()
    frontiers: List[FrontierFeatures] = []
    for graph in graphs:
        weighted = (
            graph
            if graph.is_weighted
            else generators.with_random_weights(graph, seed=seed)
        )
        partition = random_partition(weighted, num_fragments, seed=seed)
        for algorithm_name in algorithms:
            algorithm = make_algorithm(algorithm_name)
            state = algorithm.init(weighted)
            while state.frontier and state.iteration < max_iterations:
                per_fragment = state.frontier.split_by_owner(
                    partition.owner, num_fragments
                )
                for fragment in per_fragment:
                    if not fragment:
                        continue
                    frontiers.append(
                        frontier_features(weighted, fragment.vertices)
                    )
                state.frontier = algorithm.step(weighted, state)
                state.iteration += 1
    if not frontiers:
        raise CostModelError("training corpus produced no samples")
    return (np.array([f[:6] for f in frontiers], dtype=np.float64),
            np.asarray(device.edge_costs(frontiers)))


def default_training_corpus(seed: int = 7) -> List[CSRGraph]:
    """A small, diverse generator zoo standing in for the paper's
    624-graph training corpus.

    Spans the three benchmark domains *including benchmark-scale
    instances* — training only on tiny graphs would leave deployment
    frontiers out of distribution, which degrades interpolating
    models (kernel methods especially) far more than their held-out
    RMSRE suggests.
    """
    return [
        generators.rmat(10, 8, seed=seed),
        generators.rmat(11, 16, seed=seed + 1, a=0.62,
                        b=0.19 / 1.1, c=0.19 / 1.1),
        generators.rmat(12, 4, seed=seed + 2),
        generators.rmat(13, 10, seed=seed + 10),
        generators.rmat(14, 6, seed=seed + 11, a=0.6,
                        b=0.2, c=0.15),
        generators.erdos_renyi(3000, 24000, seed=seed + 3),
        generators.web_graph(4000, 10, seed=seed + 4),
        generators.web_graph(8000, 6, locality=0.95, window=64,
                             seed=seed + 5),
        generators.web_graph(20000, 12, seed=seed + 12),
        generators.road_network(40, 40, seed=seed + 6),
        generators.road_network(80, 25, seed=seed + 7),
        generators.road_network(8, 300, seed=seed + 13),
        generators.small_world(4000, k=4, seed=seed + 8),
        generators.star(2000),
        generators.grid_2d(50, 40, seed=seed + 9),
    ]


def train_default() -> PolynomialSGDModel:
    """Fit the shipped default: degree-4 polynomial on the default corpus.

    Deterministic; ``docs/costmodel.md`` has the one-liner that writes
    its result over ``default_costmodel.json``.
    """
    features, costs = collect_training_data(default_training_corpus())
    model = PolynomialSGDModel()
    model.fit(features, costs)
    return model


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
            except ReproError:
                # no archived ledger (stateless policy), a malformed
                # one, or an empty one (model never consulted):
                # nothing to harvest
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
    #: artifact digest of an already-fitted model (the shipped baseline)
    digest: Optional[str] = None

    def as_dict(self) -> dict:
        """JSON-friendly view."""
        view = {
            "family": self.family,
            "fold_rmsre": [float(v) for v in self.fold_rmsre],
            "cv_rmsre": float(self.cv_rmsre),
        }
        if self.digest is not None:
            view["digest"] = self.digest
        return view


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
    apples-to-apples verdict; the baseline block names it by artifact
    digest.
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
        digest=shipped.artifact["digest"],
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
