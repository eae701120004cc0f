#!/usr/bin/env python3
"""Whole-run host-time benchmark with a per-layer table.

    python benchmarks/e2e/run.py                      # all four workloads
    python benchmarks/e2e/run.py --workload tail-road --seed 1
    python benchmarks/e2e/run.py --smoke              # 1 pass each
    python benchmarks/e2e/run.py --compare A.json B.json

A single closed-loop client: each op starts after the previous one
returned. Every workload runs in fresh interpreters of its own (so
set-up time and peak RSS are per workload); BLAS/OpenMP are pinned to
one thread for this process and its children. See README.md for the
workloads, the metrics and how they are expected to interact.

The benchmark driver's form is

    run.py --workload NAME --seed N --seconds S --trace 0|1

which measures for about ``S`` seconds and prints one JSON object as
the last line of standard output: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    E2E_METRICS, EXACT_METRICS, LAYER_METRICS, PASSES_PER_REP, WORKLOADS,
    quartiles,
)

SCHEMA = "repro-e2e/1"
#: temp data lives inside the checkout (git-ignored), never elsewhere
TMP_ROOT = ROOT / ".bench_tmp"
REP_TIMEOUT_S = 150
#: set-ups per run when a ``--seconds`` budget drives the passes
BUDGET_REPS = 2
FULL_REPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="partition seed passed to repro.run(seed=S)")
    parser.add_argument("--seconds", type=float,
                        help="time budget of the timed passes (default: "
                        "fixed pass counts)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: print the result line with the "
                        "end-to-end (0) or per-layer (1) metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one rep, one timed pass per workload")
    parser.add_argument("--out", help="JSON report path")
    parser.add_argument("--trace-out", help="Chrome trace_event JSON path")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    # one rep of one workload in this interpreter (started by run.py)
    parser.add_argument("--rep", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--verify", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------
# starting reps
# ---------------------------------------------------------------------
def pin_threads() -> None:
    """One BLAS/OpenMP thread for this process and its children."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[name] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def spawn_rep(name, args, tmp: Path, index: int, **flags) -> dict:
    """Run one rep of ``name`` in a fresh interpreter; return its result."""
    rep_dir = tmp / f"{name}-rep{index}"
    rep_dir.mkdir()
    result_path = rep_dir / "result.json"
    command = [sys.executable, str(HERE / "run.py"), "--rep", str(rep_dir),
               "--workload", name, "--seed", str(args.seed)]
    for flag, value in flags.items():
        if value is True:
            command.append(f"--{flag}")
        elif value is not False and value is not None:
            command += [f"--{flag}", repr(value)]
    command += ["--t0", repr(time.time())]
    # its own session, so a hung rep and its CLI children die together
    proc = subprocess.Popen(command, env=child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{name}: rep {index} exceeded {REP_TIMEOUT_S} s")
    if code != 0 or not result_path.is_file():
        raise SystemExit(f"{name}: rep {index} exited with code {code}")
    return json.loads(result_path.read_text())


def rep_main(args) -> int:
    """Child entry: one rep of one workload in this interpreter."""
    result = workloads.run_rep(args.workload, args)
    Path(args.rep, "result.json").write_text(json.dumps(result))
    return 0


# ---------------------------------------------------------------------
# one workload: its reps, folded
# ---------------------------------------------------------------------
def run_workload(name, args, tmp: Path) -> dict:
    if args.seconds is not None:
        count = 1 if args.trace == 1 else BUDGET_REPS
    else:
        count = 1 if args.smoke else FULL_REPS
    traced = args.trace != 0
    reps, remaining = [], args.seconds
    for index in range(count):
        # the first rep always has timed passes to verify and compare
        # the traced pass with; a later one may only set up
        flags = {"traced": traced and index == 0, "verify": index == 0}
        if args.seconds is None:
            flags["passes"] = 1 if args.smoke else PASSES_PER_REP[name]
        else:
            # a rep that finds the budget spent only sets up
            flags["budget"] = max(0.0, remaining) / (count - index)
        rep = spawn_rep(name, args, tmp, index, **flags)
        if remaining is not None:
            remaining -= sum(rep["pass_walls"])
        reps.append(rep)
    return fold_reps(name, reps)


def _stat(values) -> dict:
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def fold_reps(name, reps) -> dict:
    spec = WORKLOADS[name]
    walls = [wall for rep in reps for wall in rep["pass_walls"]]
    measured = [rep for rep in reps if rep["pass_walls"]]
    steps, virtual_ms = measured[0]["steps"], measured[0]["virtual_ms"]
    failures = [why for rep in reps for why in rep["failures"]]
    failed = sum(rep["failed_ops"] for rep in reps)
    for rep in measured[1:]:
        if (rep["steps"], rep["virtual_ms"]) != (steps, virtual_ms):
            failed += rep["ops"]
            failures.append(
                f"{name}: reps disagree on virtual ms "
                f"({rep['virtual_ms']!r} != {virtual_ms!r})"
            )
    first = reps[0]
    return {
        "why": spec.why,
        "cells": [workloads.cell_label(cell) for cell in spec.cells],
        "reps": len(reps),
        "passes": len(walls),
        "end_to_end": {
            "wall_s": _stat(walls),
            "steps_per_s": _stat([steps / wall for wall in walls]),
            "setup_s": _stat([rep["setup_s"] for rep in reps]),
            "peak_rss_mb": _stat([rep["peak_rss_mb"] for rep in reps]),
        },
        "exact": {
            "virtual_ms": virtual_ms,
            "virtual_speedup_x": first["virtual_speedup_x"],
            "ops": sum(rep["ops"] for rep in reps),
            "failed_ops": failed,
        },
        "per_layer": first["layers"],
        "verify_s": first["verify_s"],
        "failures": failures,
        "spans": first["spans"],
    }


# ---------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------
def host_info() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=5,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
    }


def print_workload(name, entry) -> None:
    print(f"\n== {name}: {entry['passes']} timed passes in "
          f"{entry['reps']} rep(s), {len(entry['cells'])} cells ==")
    print("  (n < 21, so no tail percentile qualifies: "
          "median [q1 .. q3] over n)")
    for metric, unit, better, bound in E2E_METRICS:
        stat = entry["end_to_end"][metric]
        print(f"  {metric:28s} {stat['value']:14.4f} {unit:10s} "
              f"[{stat['q1']:.4f} .. {stat['q3']:.4f}] n={stat['n']} "
              f"({better} is better, bound {bound:.0%})")
    for metric, unit, __ in EXACT_METRICS:
        value = entry["exact"][metric]
        shown = "-" if value is None else f"{value:14.6f}"
        print(f"  {metric:28s} {shown:>14s} {unit:10s} (exact)")
    if entry["verify_s"] is not None:
        print(f"  {'verify_s':28s} {entry['verify_s']:14.4f} s")
    if entry["per_layer"]:
        print("  -- per layer (one traced pass) --")
        for metric, unit, __ in LAYER_METRICS:
            print(f"  {metric:28s} {entry['per_layer'][metric]:14.6f} "
                  f"{unit}")
    for why in entry["failures"]:
        print(f"  FAILED {why}")


def result_line(name, entry, trace: int) -> str:
    """The driver's one-line result for ``--trace 0|1``."""
    if trace == 0:
        metrics = {
            metric: {"value": entry["end_to_end"][metric]["value"],
                     "unit": unit}
            for metric, unit, __, __ in E2E_METRICS
        }
    else:
        metrics = {
            metric: {"value": entry["per_layer"][metric], "unit": unit}
            for metric, unit, __ in LAYER_METRICS
        }
    failed = entry["exact"]["failed_ops"]
    return json.dumps({
        "correct": failed == 0,
        "attempted": entry["exact"]["ops"],
        "failed": failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if os.environ.get("REPRO_SCALE"):
        raise SystemExit("REPRO_SCALE is set: this benchmark measures the "
                         "default graph sizes only; unset it")
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no src/repro under {ROOT}: nothing to measure")
    if args.rep:
        return rep_main(args)
    if args.trace is not None and not (args.workload and args.seconds):
        raise SystemExit("--trace needs --workload and --seconds")

    pin_threads()
    names = [args.workload] if args.workload else list(WORKLOADS)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="e2e-", dir=TMP_ROOT))
    try:
        entries = {name: run_workload(name, args, tmp) for name in names}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    for name, entry in entries.items():
        print_workload(name, entry)
    spans_by_workload = {name: entry.pop("spans") or []
                         for name, entry in entries.items()}
    report = {
        "schema": SCHEMA,
        "host": host_info(),
        "seed": args.seed,
        "mode": ("budget" if args.seconds is not None
                 else "smoke" if args.smoke else "full"),
        "catalogue": {
            "end_to_end": E2E_METRICS,
            "exact": EXACT_METRICS,
            "per_layer": LAYER_METRICS,
        },
        "workloads": entries,
    }
    # the driver form writes nothing unless asked; by hand, the report
    # and the trace land under the system temp dir, never in the repo
    by_hand = args.trace is None
    out = args.out or (by_hand and os.path.join(
        tempfile.gettempdir(), "repro-e2e-report.json"))
    trace_out = args.trace_out or (by_hand and os.path.join(
        tempfile.gettempdir(), "repro-e2e-trace.json"))
    if out:
        Path(out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nreport: {out}")
    if trace_out and any(spans_by_workload.values()):
        spans.write_chrome_trace(trace_out, spans_by_workload)
        print(f"trace:  {trace_out}  (open in Perfetto)")
    failed = sum(e["exact"]["failed_ops"] for e in entries.values())
    print(f"\nfailed_ops: {failed}")
    if args.trace is not None:
        print(result_line(args.workload, entries[args.workload], args.trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
