#!/usr/bin/env python3
"""Chaos drill: inject faults into a run and prove the answer survives.

Loads a scenario file (default: every scenario committed under
``benchmarks/scenarios/``), replays it against TX/bfs on 4 virtual
GPUs, and checks the three promises of ``repro.chaos``:

1. **Correctness is untouchable** — the faulted run's output matches
   the scipy reference oracle exactly; faults cost time, never answers.
2. **Degradation is graceful** — dead workers are evicted and their
   fragments re-homed, degraded links reroute steal traffic, solver
   timeouts fall through the backend chain.
3. **Chaos is deterministic** — replaying the same scenario yields the
   same virtual time, bit for bit. A scenario that fails by design
   (``solver-exhausted.json`` exhausts the solver fallback chain) must
   fail the same way twice: the same ``SolverError`` at the same
   iteration.

This script doubles as the CI ``chaos-smoke`` validation driver.

Run:  python examples/chaos_drill.py
      python examples/chaos_drill.py --scenario benchmarks/scenarios/kill-worker.json
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import repro
from repro.algorithms.validate import reference_bfs
from repro.bench.runner import Cell, run_cell
from repro.errors import SolverError

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "scenarios"


def faulted_run(scenario, graph: str, algorithm: str, gpus: int):
    """One run under ``scenario``: its result, or — for a scenario that
    fails by design — the ``SolverError`` message and the iteration the
    run stopped in."""
    controller = repro.ChaosController(scenario)
    try:
        return run_cell(Cell("gum", algorithm, graph, num_gpus=gpus),
                        chaos=controller)
    except SolverError as exc:
        return str(exc), controller.iteration


def drill(scenario_path: Path, graph: str = "TX", algorithm: str = "bfs",
          gpus: int = 4) -> None:
    scenario = repro.ChaosScenario.from_file(scenario_path)
    print(f"\n=== scenario {scenario.name!r} "
          f"({len(scenario)} fault(s), seed {scenario.seed}) ===")
    if scenario.description:
        print(f"  {scenario.description}")

    # healthy baseline for the time comparison
    healthy = run_cell(Cell("gum", algorithm, graph, num_gpus=gpus))

    # the faulted run, twice, to demonstrate determinism
    results = [faulted_run(scenario, graph, algorithm, gpus)
               for _ in range(2)]
    if isinstance(results[0], tuple) or isinstance(results[1], tuple):
        # an expected failure is an outcome too: the same error at the
        # same iteration, every time
        assert results[0] == results[1], \
            f"a failing scenario must fail the same way twice: {results}"
        message, iteration = results[0]
        print(f"  fails by design at iteration {iteration}, twice: "
              f"SolverError: {message}")
        return
    faulted = results[0]
    assert faulted.total_seconds == results[1].total_seconds, \
        "chaos must be deterministic"

    # promise 1: validate against the scipy oracle, not just the
    # healthy run — an independent ground truth
    loaded = repro.datasets.load(graph)
    if algorithm == "bfs":
        from repro.bench.workloads import algorithm_params

        params = algorithm_params(algorithm, graph)
        expected = reference_bfs(loaded, params["source"])
        assert np.array_equal(faulted.values, expected), \
            "faulted output diverged from the reference oracle"
    assert np.array_equal(faulted.values, healthy.values)

    stats = faulted.chaos
    print(f"  healthy : {healthy.total_ms:8.3f} ms "
          f"({healthy.num_iterations} iterations)")
    print(f"  faulted : {faulted.total_ms:8.3f} ms "
          f"({faulted.num_iterations} iterations, deterministic replay)")
    print(f"  injected: {stats['faults_injected']} fault(s); "
          f"evictions={stats['evictions']} "
          f"links_degraded={stats['links_degraded']} "
          f"solver_fallbacks={stats['solver_fallbacks']} "
          f"transfer_retries={stats['transfer_retries']}")
    for event in stats["events"]:
        print(f"    - {event}")
    print("  output validated against the scipy reference oracle")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario", metavar="PATH", default=None,
        help="one scenario file (default: all of benchmarks/scenarios/)",
    )
    parser.add_argument("--graph", default="TX")
    parser.add_argument("--algorithm", default="bfs")
    parser.add_argument("--gpus", type=int, default=4)
    args = parser.parse_args(argv)

    paths = (
        [Path(args.scenario)]
        if args.scenario
        else sorted(SCENARIO_DIR.glob("*.json"))
    )
    if not paths:
        print(f"no scenarios found under {SCENARIO_DIR}", file=sys.stderr)
        return 1
    for path in paths:
        drill(path, graph=args.graph, algorithm=args.algorithm,
              gpus=args.gpus)
    print(f"\nall {len(paths)} drill(s) passed: faults cost time, "
          "never answers.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
