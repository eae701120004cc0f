"""The ``costmodel.*`` bench family: the refit feedback loop.

Two measured, self-gating cases back the refit loop's acceptance
criteria, all deterministic — virtual-clock and model quantities only,
so the gates hold on any host:

* ``costmodel.refit_loop`` — the headline feedback loop on a real
  workload (TX PageRank on 8 GPUs): run under the shipped model,
  harvest the run's *own* decision ledger, refit, rerun under the
  fitted model. Gates: the refit beats the shipped polynomial's RMSRE
  on the harvested samples, **and** total virtual time drops — better
  per-edge predictions change FSteal/OSteal decisions for the better.
* ``costmodel.fit_reference`` — ``harvest`` + ``fit_candidates`` over
  the two committed reference runs. Gate: the winning family's k-fold
  held-out RMSRE beats the shipped polynomial evaluated on the same
  folds (the ``repro costmodel fit --from-runs`` CI assertion).

``repro bench --filter costmodel`` runs them (CI writes
``BENCH_costmodel.json``) and exits 1 on any violation.
"""

from __future__ import annotations

import tempfile

from repro.bench.perfharness import BENCH_CASES, BenchCase
from repro.core.costmodel import (
    MODEL_FAMILIES,
    pretrained_default,
    rmsre,
)

__all__ = ["REFERENCE_RUNS"]

#: The committed reference recordings the fit case feeds on.
REFERENCE_RUNS = (
    "benchmarks/reference/tx-bfs-4gpu",
    "benchmarks/reference/tx-sssp-4gpu",
)


def _registry():
    from repro.runs import RunRegistry

    # path refs resolve against the filesystem; the registry root is
    # never written, so a throwaway directory keeps the bench hermetic
    return RunRegistry(tempfile.mkdtemp(prefix="repro-costmodel-"))


def _case_refit_loop() -> dict:
    """Run -> harvest own ledger -> refit -> rerun, on TX PageRank."""
    import repro
    from repro.graph import datasets

    graph = datasets.load("TX")
    baseline = repro.run(graph, "pr", num_gpus=8)
    samples = baseline.ledger.export_samples()
    shipped_rmsre = rmsre(
        pretrained_default().predict(samples.features), samples.costs
    )
    model = MODEL_FAMILIES["tree"]()
    fit_report = model.fit(samples.features, samples.costs)
    refit = repro.run(graph, "pr", num_gpus=8, cost_model=model)
    result = {
        "workload": "gum/pr/TX/8gpu",
        "family": "tree",
        "samples": int(samples.costs.size),
        "default_total_ms": float(baseline.total_ms),
        "fitted_total_ms": float(refit.total_ms),
        "delta_ms": float(baseline.total_ms - refit.total_ms),
        "shipped_rmsre": float(shipped_rmsre),
        "fitted_rmsre": float(fit_report.train_rmsre),
    }
    violations = []
    if result["fitted_rmsre"] >= result["shipped_rmsre"]:
        violations.append(
            f"refit RMSRE {result['fitted_rmsre']:.4f} does not beat "
            f"the shipped model's {result['shipped_rmsre']:.4f} on "
            "the harvested samples"
        )
    if result["delta_ms"] <= 0.0:
        violations.append(
            "the fitted model did not lower total virtual time "
            f"({result['default_total_ms']:.4f} ms -> "
            f"{result['fitted_total_ms']:.4f} ms)"
        )
    result["violations"] = violations
    result["summary"] = (
        f"{result['workload']} {result['default_total_ms']:.4f} -> "
        f"{result['fitted_total_ms']:.4f} ms "
        f"({result['delta_ms']:+.4f} ms), RMSRE "
        f"{result['shipped_rmsre']:.4f} -> {result['fitted_rmsre']:.4f} "
        f"({result['family']}, {result['samples']} samples)"
    )
    return result


def _case_fit_reference() -> dict:
    """Held-out fit quality over the committed reference corpus."""
    from repro.core.costmodel_fit import fit_candidates, harvest

    corpus = harvest(_registry(), refs=REFERENCE_RUNS)
    outcome = fit_candidates(corpus, model="auto", folds=5, seed=0)
    result = {
        "refs": list(REFERENCE_RUNS),
        "samples": len(corpus),
        "family": outcome.family,
        "holdout_rmsre": float(outcome.holdout_rmsre),
        "shipped_rmsre": float(outcome.baseline.cv_rmsre),
        "candidates": {
            name: float(report.cv_rmsre)
            for name, report in outcome.candidates.items()
        },
    }
    violations = []
    if not outcome.beats_shipped:
        violations.append(
            f"held-out RMSRE {outcome.holdout_rmsre:.4f} does not "
            f"beat the shipped polynomial's "
            f"{outcome.baseline.cv_rmsre:.4f}"
        )
    result["violations"] = violations
    result["summary"] = (
        f"{result['family']} held-out RMSRE "
        f"{result['holdout_rmsre']:.4f} vs shipped "
        f"{result['shipped_rmsre']:.4f} ({result['samples']} samples, "
        f"{len(REFERENCE_RUNS)} reference runs)"
    )
    return result


for _name, _case in (
    ("costmodel.refit_loop", _case_refit_loop),
    ("costmodel.fit_reference", _case_fit_reference),
):
    BENCH_CASES[_name] = BenchCase(
        name=_name, setup=lambda case=_case: case,
        meta={"on_demand": True}, timed=False,
    )
