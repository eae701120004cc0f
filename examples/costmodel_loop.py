#!/usr/bin/env python3
"""The cost-model feedback loop, end to end.

Run a workload under the shipped cost model and record it, harvest the
run's own decision ledger into a training corpus, fit candidate model
families with held-out RMSRE against the shipped baseline, check the
recording, then close the loop: ``replay_run`` re-executes the recorded
workload with the fitted artifact plugged in and reports what its
decisions changed.

Run:  python examples/costmodel_loop.py
"""

import tempfile
from pathlib import Path

from repro.bench.runner import Cell, run_cell
from repro.core.costmodel import save_artifact
from repro.core.costmodel_fit import fit_candidates, harvest
from repro.replay import format_replay_result, replay_run
from repro.runs import RunRegistry, workload_fingerprint


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-costmodel-loop-"))
    registry = RunRegistry(workdir / "runs")

    # --- 1. run under the shipped model and record -------------------
    # run_cell is the path `repro run` takes, so the fingerprint below
    # names exactly this run and a replay can re-execute it
    baseline = run_cell(Cell("gum", "pr", "TX", 8))
    run_id = registry.record_result(baseline, workload_fingerprint(
        engine="gum", algorithm="pr", graph="TX", num_gpus=8,
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

    # --- 4. the recording checks against itself ----------------------
    pinned = replay_run(registry, run_id)
    assert pinned.bit_identical
    print(format_replay_result(pinned))

    # --- 5. close the loop: re-execute under the fitted model --------
    refit = replay_run(registry, run_id, cost_model=str(artifact_path))
    print()
    print(format_replay_result(refit))


if __name__ == "__main__":
    main()
