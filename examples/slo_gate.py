#!/usr/bin/env python3
"""Live telemetry and SLO gating, end to end.

Streams a GUM run as repro-live JSON lines while it executes, replays
the stream in the `repro top` dashboard model, then evaluates a
repro-slo/1 policy against the run: first the shipping rules (green),
then a tightened copy (red) — the loop a CI gate runs on every build
(see the slo-gate job in .github/workflows/ci.yml).

Run:  python examples/slo_gate.py
"""

import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.runs import result_summary
from repro.obs import MetricsRegistry, StreamingSink, Tracer
from repro.obs.slo import SLO_SCHEMA, evaluate, policy_from_dict, slo_series
from repro.obs.top import follow_stream

RULES = {
    "schema": SLO_SCHEMA,
    "rules": [
        {"metric": "total_ms", "max": 35.0},
        {"metric": "p99_iteration_ms", "max": 1.0},
        {"metric": "min_gpu_utilization", "min": 0.9},
        {"metric": "max_stall_fraction", "max": 0.05},
        # the stream's encode + write is counted too: ~9% of this
        # ~90 ms run (CI gates it as < 100 us per superstep in
        # benchmarks/perf/test_obs_overhead.py); one-shot wall-clock
        # measurements are noisy, so this demo leaves slack
        {"metric": "obs_overhead_pct", "max": 20.0, "required": False},
        # anomaly scan; BFS phase structure is expected, so the
        # ceiling sits above its natural z-scores
        {"series": "wall_ms", "zscore_max": 120.0, "warmup": 5},
    ],
}


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="slo-gate-"))
    stream_path = workdir / "live.jsonl"

    # --- stream the run live ------------------------------------------
    graph = repro.datasets.load("TX")
    source = int(np.argmax(graph.out_degrees()))
    # one silent warm-up run so the overhead measurement reflects
    # steady state (cost-model training and cache fills land here,
    # not on the tracer's tab)
    repro.run(graph, "bfs", num_gpus=4, source=source)
    metrics = MetricsRegistry()
    tracer = Tracer(sinks=[StreamingSink(
        stream_path,
        meta={"engine": "gum", "algorithm": "bfs", "graph": "TX",
              "num_gpus": 4},
        metrics=metrics,
        snapshot_every=10,
    )])
    result = repro.run(
        graph, "bfs", num_gpus=4, source=source,
        tracer=tracer, metrics=metrics,
    )
    tracer.close()
    summary = result_summary(result)
    print(f"streamed {result.num_iterations} supersteps to "
          f"{stream_path}")
    print(f"virtual time {result.total_ms:.2f} ms, observability "
          f"overhead {summary['obs_overhead_pct']:.2f}% of run wall "
          "time\n")

    # --- what a consumer sees: replay the stream in the dashboard ----
    frames = []
    follow_stream(stream_path, frames.append, follow=False, ansi=False)
    print(frames[-1])

    # --- the gate, green ----------------------------------------------
    policy = policy_from_dict(RULES, source="examples/slo_gate.py")
    series = slo_series(result)  # the per-superstep trace records
    report = evaluate(policy, summary, series, subject="live TX/bfs run")
    print("\n".join(report.lines()))
    assert report.ok and report.exit_code == 0

    # --- the gate, red: tighten p99 below what the run achieves ------
    tightened = {
        "schema": SLO_SCHEMA,
        "rules": [{"metric": "p99_iteration_ms", "max": 0.1}],
    }
    red = evaluate(policy_from_dict(tightened), summary, series,
                   subject="tightened rules")
    print()
    print("\n".join(red.lines()))
    assert not red.ok and red.exit_code == 1
    print("\nexit codes: 0 = objectives hold, 1 = violation, "
          "2 = bad input — CI branches on exactly this")


if __name__ == "__main__":
    main()
