#!/usr/bin/env python3
"""The cost-model feedback loop, end to end.

Run a workload under the shipped cost model and record it, harvest the
run's own decision ledger into a training corpus, fit candidate model
families with held-out RMSRE against the shipped baseline, validate by
replaying the recording (bit-identical under the original model,
per-iteration error attribution under the fitted one), then rerun the
workload with the fitted artifact plugged in.

Run:  python examples/costmodel_loop.py
"""

import tempfile
from pathlib import Path

import repro
from repro.core.costmodel import load_artifact, save_artifact
from repro.core.costmodel_fit import fit_candidates, harvest
from repro.replay import format_replay_result, replay_run
from repro.runs import RunRegistry, workload_fingerprint


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-costmodel-loop-"))
    registry = RunRegistry(workdir / "runs")

    # --- 1. run under the shipped model and record -------------------
    graph = repro.datasets.load("TX")
    baseline = repro.run(graph, "pr", num_gpus=8)
    run_id = registry.record_result(baseline, workload_fingerprint(
        engine="gum", algorithm="pr", graph=graph.name, num_gpus=8,
    ))
    print(f"recorded {run_id}: {baseline.total_ms:.2f} virtual ms, "
          f"online RMSRE {baseline.ledger.final_rmsre:.4f}\n")

    # --- 2. harvest the registry into a training corpus --------------
    corpus = harvest(registry)
    print(f"harvested {len(corpus)} samples from "
          f"{len(corpus.runs)} run(s)")

    # --- 3. fit candidates, held out against the shipped model -------
    outcome = fit_candidates(corpus, model="auto", folds=5, seed=0)
    for name, report in sorted(outcome.candidates.items()):
        marker = "  <-- chosen" if name == outcome.family else ""
        print(f"  {name:<10}: held-out RMSRE "
              f"{report.cv_rmsre:.4f}{marker}")
    print(f"  shipped   : held-out RMSRE "
          f"{outcome.baseline.cv_rmsre:.4f}  (baseline)")
    assert outcome.beats_shipped

    artifact_path = workdir / "model.json"
    artifact = save_artifact(outcome.model, artifact_path,
                             provenance=outcome.report())
    print(f"\nartifact: {artifact_path} "
          f"(family={artifact['family']}, "
          f"digest={artifact['digest'][:8]})\n")

    # --- 4. validate by replay ---------------------------------------
    pinned = replay_run(registry, run_id)
    assert pinned.bit_identical  # the original model reproduces itself
    print(format_replay_result(pinned))
    print()
    what_if = replay_run(registry, run_id,
                         cost_model=str(artifact_path))
    print(format_replay_result(what_if))

    # --- 5. close the loop: rerun under the fitted model -------------
    refit = repro.run(graph, "pr", num_gpus=8,
                      cost_model=load_artifact(artifact_path))
    delta = baseline.total_ms - refit.total_ms
    print(f"\nrerun under {refit.ledger.model}: "
          f"{baseline.total_ms:.2f} -> {refit.total_ms:.2f} virtual ms "
          f"({delta:+.2f} ms), online RMSRE "
          f"{baseline.ledger.final_rmsre:.4f} -> "
          f"{refit.ledger.final_rmsre:.4f}")


if __name__ == "__main__":
    main()
