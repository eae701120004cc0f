"""Observability self-cost budget: an absolute one, per superstep.

Every engine's run envelope self-measures the host seconds spent
inside span/metric emission (``RunResult.obs_seconds``) and reports
them as ``obs_overhead_pct`` of run wall time. The gate is
stated in **microseconds of ``obs_seconds`` per instrumented
superstep**, not as that percentage: the ratio's denominator is the
run wall, so making the engine faster used to fail it (the same
emission cost read 2.4-2.5 % of a 170 ms TX/bfs@4 run and 3.1-3.5 %
once the run took 80-140 ms). The instrumented run is TX/bfs@4 under
``gum``, 137 supersteps, with an in-memory sink, a JSONL trace sink
on ``os.devnull`` and a metrics registry. The number covers emission,
JSON encoding and the write: the JSONL sink does all of them on the
engine thread. The 100 us budget was set at 2x the 51.5 us median of
the heavier sink it replaced (a live stream that also encoded metrics
snapshots; seven best-of-3 rounds on a 2-core VM read 48.5-57.5 us).
The budget **excludes the prediction audit**: the audit runs inside
the arbitrator's ``plan`` and is part of the decision's host cost,
not of ``obs_seconds``. The suite also proves the virtual clock is
untouched: a traced run and a silent run must charge bit-identical
simulated time, or observability would perturb the physics it
observes.

Cost is measured best-of-N (noise only ever inflates it, never
deflates it), mirroring ``time_callable``. The ledger-recording gate
further down is still a ratio of two paired walls.
"""

from __future__ import annotations

import os

from repro.bench import perfharness
from repro.bench.workloads import (
    algorithm_params,
    cached_partition,
    prepare_graph,
)
from repro.facade import make_engine
from repro.core import GumConfig
from repro.obs import InMemorySink, JsonlSink, MetricsRegistry, Tracer
from repro.runtime.trace import trace_records

#: host microseconds of emission + encoding + write per instrumented
#: superstep (see the module docstring for where 100 comes from)
STREAMING_BUDGET_US_PER_SUPERSTEP = 100.0
#: ledger recording, as a share of the recording-off run's wall
OVERHEAD_BUDGET_PCT = 3.0
BEST_OF = 3


def _run_tx_bfs(stream: bool):
    """One fully instrumented TX/bfs/4gpu run, optionally also writing
    its JSONL trace (to ``os.devnull``)."""
    metrics = MetricsRegistry()
    sinks = [InMemorySink()]
    if stream:
        sinks.append(JsonlSink(os.devnull))
    tracer = Tracer(sinks=sinks)
    engine = make_engine("gum", num_gpus=4, tracer=tracer, metrics=metrics)
    graph = prepare_graph("TX", "bfs")
    partition = cached_partition(graph, 4)
    result = engine.run(graph, partition, "bfs",
                        **algorithm_params("bfs", "TX"))
    for sink in sinks:
        sink.close()
    return result


def test_streaming_overhead_within_budget():
    """JSONL trace + metrics cost < 100 us of obs_seconds per superstep."""
    _run_tx_bfs(stream=True)  # warm caches outside the measurement
    runs = [_run_tx_bfs(stream=True) for _ in range(BEST_OF)]
    best = min(runs, key=lambda result: result.obs_seconds)
    per_superstep_us = 1e6 * best.obs_seconds / best.num_iterations
    print(f"\nJSONL trace obs cost (best of {BEST_OF}): "
          f"{per_superstep_us:.1f} us/superstep over "
          f"{best.num_iterations} supersteps "
          f"({best.obs_overhead_pct():.2f}% of run wall, not gated)")
    assert 0.0 < per_superstep_us < STREAMING_BUDGET_US_PER_SUPERSTEP


def test_untraced_run_reports_zero_overhead():
    """With no observers the engine spends nothing on observability."""
    engine = make_engine("gum", num_gpus=4)
    graph = prepare_graph("TX", "bfs")
    partition = cached_partition(graph, 4)
    result = engine.run(graph, partition, "bfs",
                        **algorithm_params("bfs", "TX"))
    assert result.obs_seconds == 0.0
    assert result.run_wall_seconds > 0.0
    assert result.obs_overhead_pct() == 0.0


def test_streaming_never_touches_virtual_clock():
    """Traced and silent runs charge bit-identical simulated time."""
    silent = _run_tx_bfs(stream=False)
    streamed = _run_tx_bfs(stream=True)
    assert streamed.total_ms == silent.total_ms
    assert trace_records(streamed) == trace_records(silent)


def _run_tx_bfs_ledger(ledger: bool):
    """One metrics-instrumented TX/bfs/4gpu run, recording on or off.

    Both sides carry a registry so the cost-model prediction audit —
    part of the instrumented feed since before the ledger existed —
    runs identically in each; the wall-time delta isolates what the
    ledger itself adds.
    """
    engine = make_engine("gum", num_gpus=4, metrics=MetricsRegistry(),
                         gum_config=GumConfig(ledger=ledger))
    graph = prepare_graph("TX", "bfs")
    partition = cached_partition(graph, 4)
    return engine.run(graph, partition, "bfs",
                      **algorithm_params("bfs", "TX"))


def test_ledger_recording_within_budget():
    """Default-on decision recording fits inside the 3% obs budget.

    The ledger has no self-measurement hook of its own (it runs inside
    plan(), not the emit path), so the budget is pinned on host wall
    time directly: recording may cost at most the obs budget's share
    of the fastest recording-off instrumented run.
    """
    _run_tx_bfs_ledger(True)  # warm caches outside the measurement
    # each round is a back-to-back off/on pair, so host-speed drift
    # (thermal, noisy neighbors) hits both sides of one delta alike;
    # the best round is the cleanest measurement of the marginal cost,
    # which unpaired noise can only overstate
    rounds = []
    for _ in range(2 * BEST_OF):
        off = _run_tx_bfs_ledger(False).run_wall_seconds
        on = _run_tx_bfs_ledger(True).run_wall_seconds
        rounds.append((on - off) / off)
    overhead_pct = 100.0 * max(0.0, min(rounds))
    print(f"\nledger recording overhead (best of {2 * BEST_OF} "
          f"paired rounds): {overhead_pct:.2f}%")
    assert overhead_pct < OVERHEAD_BUDGET_PCT


def test_ledger_recording_never_touches_virtual_clock():
    """Recording on and off charge bit-identical simulated time."""
    on = _run_tx_bfs_ledger(True)
    off = _run_tx_bfs_ledger(False)
    assert on.ledger is not None and off.ledger is None
    assert on.total_ms == off.total_ms
    assert trace_records(on) == trace_records(off)


def test_obs_bench_family_registered():
    """The obs.* cases exist so the suite gate covers emission cost."""
    obs_cases = sorted(
        name for name in perfharness.BENCH_CASES if name.startswith("obs.")
    )
    assert obs_cases == [
        "obs.emit.iteration",
        "obs.ledger_overhead.analytics",
        "obs.ledger_overhead.record",
        "obs.snapshot",
    ]


def test_obs_bench_cases_run(bench_report):
    """Every obs.* case produces a finite positive timing in the suite."""
    benchmarks = bench_report["benchmarks"]
    for name in perfharness.BENCH_CASES:
        if not name.startswith("obs."):
            continue
        assert name in benchmarks
        assert benchmarks[name]["seconds"] > 0.0
        assert benchmarks[name]["score"] > 0.0
