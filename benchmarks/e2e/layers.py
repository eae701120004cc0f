"""Calls into ``repro``'s public functions, one span per layer boundary.

Imported by a workload process only *after* it has timed ``import
repro`` — everything here touches the package. Nothing in ``src/`` is
instrumented: the untraced path is the facade (``repro.run``); the
traced path replays the facade's steps through the same public calls
(``parse_topology`` -> ``make_partition`` -> ``GumScheduler`` ->
``make_algorithm`` -> ``BSPEngine.run``) with the scheduler and the
algorithm wrapped in delegating proxies that open a span per call. The
traced path must reproduce the facade's virtual time and values bit
for bit; the caller checks that.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

import numpy as np

import repro
from repro.algorithms import make_algorithm, validate
from repro.baselines import GrouteEngine, GunrockEngine
from repro.core import GumConfig, GumScheduler
from repro.graph import symmetrize, with_random_weights
from repro.graph.datasets import DATASETS
from repro.hardware.topology import parse_topology
from repro.obs import ChromeTraceSink, JsonlSink, MetricsRegistry, Tracer
from repro.obs.ledger import Ledger, explain_lines
from repro.partition.partitioners import make_partition
from repro.replay import replay_run
from repro.runs import RunRegistry, workload_fingerprint
from repro.runtime import BSPEngine
from repro.runtime.scheduler import Scheduler

#: the benchmark tables' fixed PageRank bounds (``repro.bench`` uses the
#: same pair), and the tolerance tier-1's ``test_pr_correct`` asserts
PR_PARAMS = {"max_rounds": 30, "tol": 1e-10}
PR_ORACLE_ATOL = 1e-8


def _timed(rec, span_name, method, *args, **kwargs):
    index = rec.begin(span_name)
    try:
        return method(*args, **kwargs)
    finally:
        rec.end(index)


class TimedScheduler(Scheduler):
    """Delegating scheduler: one ``core.*`` span per arbitrator call."""

    def __init__(self, inner: Scheduler, rec) -> None:
        self._inner = inner
        self._rec = rec
        self.name = inner.name

    @property
    def ledger(self):
        return self._inner.ledger

    def begin_run(self, context):
        return _timed(self._rec, "core.begin_run", self._inner.begin_run,
                      context)

    def plan(self, iteration, fragment_frontiers, workloads, context):
        return _timed(self._rec, "core.plan", self._inner.plan, iteration,
                      fragment_frontiers, workloads, context)

    def observe(self, record, context):
        return _timed(self._rec, "core.observe", self._inner.observe,
                      record, context)

    def on_fault(self, event, context):
        return self._inner.on_fault(event, context)

    def finish_run(self, context):
        return _timed(self._rec, "core.finish_run", self._inner.finish_run,
                      context)


class TimedAlgorithm:
    """Delegating algorithm: spans around ``init`` and the superstep
    kernels (``step``, and ``local_step`` for Groute's own loop)."""

    def __init__(self, inner, rec) -> None:
        self._inner = inner
        self._rec = rec

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def init(self, graph, **params):
        return _timed(self._rec, "algorithms.init", self._inner.init,
                      graph, **params)

    def step(self, graph, state):
        return _timed(self._rec, "algorithms.step", self._inner.step,
                      graph, state)

    def local_step(self, graph, state, frontier, allowed_mask):
        return _timed(self._rec, "algorithms.step", self._inner.local_step,
                      graph, state, frontier, allowed_mask)


# ---------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------
def build_inputs(cells):
    """Generate and prepare every graph the cells need.

    Returns ``(graphs, sources, timings)``: ``graphs[(abbr,
    algorithm)]`` is the graph prepared for that algorithm (symmetric
    for WCC, weighted for SSSP — what ``repro.bench.prepare_graph``
    does, split here so generation and preparation are timed apart);
    ``sources[abbr]`` is the repo's ``pick_source`` convention, the
    max-out-degree vertex.
    """
    base, graphs, sources = {}, {}, {}
    build_s = prepare_s = 0.0
    for cell in cells:
        abbr, name = cell.graph, cell.algorithm
        if abbr not in base:
            start = time.perf_counter()
            base[abbr] = DATASETS[abbr].build()
            build_s += time.perf_counter() - start
            sources[abbr] = int(np.argmax(base[abbr].out_degrees()))
        if (abbr, name) in graphs:
            continue
        start = time.perf_counter()
        graph = base[abbr]
        algorithm = make_algorithm(name)
        if algorithm.needs_symmetric and graph.directed:
            graph = symmetrize(graph).with_name(abbr)
        if algorithm.needs_weights and not graph.is_weighted:
            graph = with_random_weights(graph, seed=11).with_name(abbr)
        graphs[(abbr, name)] = graph
        prepare_s += time.perf_counter() - start
    distinct = {id(g): g for g in graphs.values()}.values()
    timings = {
        "graph.build_s": build_s,
        "graph.prepare_s": prepare_s,
        "graph.vertices": sum(g.num_vertices for g in distinct),
        "graph.edges": sum(g.num_edges for g in distinct),
    }
    return graphs, sources, timings


def cell_params(cell, sources) -> dict:
    """Algorithm init parameters of one cell."""
    if cell.algorithm in ("bfs", "sssp"):
        return {"source": sources[cell.graph]}
    if cell.algorithm == "pr":
        return dict(PR_PARAMS)
    return {}


def digest(values: np.ndarray) -> str:
    """Content hash of a result vector (bit-identity check)."""
    return hashlib.sha1(np.ascontiguousarray(values).tobytes()).hexdigest()


# ---------------------------------------------------------------------
# one engine run
# ---------------------------------------------------------------------
def run_cell(cell, graph, params, seed, rec, ledger=True,
             tracer=None, metrics=None):
    """One engine run of ``cell``: the facade, or its traced replica."""
    if not rec.enabled:
        return repro.run(
            graph, cell.algorithm, engine=cell.engine,
            num_gpus=cell.gpus, seed=seed, tracer=tracer,
            metrics=metrics, **params,
        )
    with rec.span("hardware.topology"):
        topology = parse_topology(None, cell.gpus)
    with rec.span("partition.make"):
        partition = make_partition("random", graph, cell.gpus, seed=seed)
    with rec.span("engine.build"):
        algorithm = TimedAlgorithm(make_algorithm(cell.algorithm), rec)
        if cell.engine == "gum":
            scheduler = TimedScheduler(
                GumScheduler(GumConfig(ledger=ledger)), rec
            )
            engine = BSPEngine(topology, scheduler=scheduler, name="gum",
                               tracer=tracer, metrics=metrics)
            run_span = "runtime.run"
        elif cell.engine == "gunrock":
            engine = GunrockEngine(topology)
            run_span = "baselines.gunrock_run"
        else:
            engine = GrouteEngine(topology)
            run_span = "baselines.groute_run"
    with rec.span(run_span):
        return engine.run(graph, partition, algorithm, **params)


# ---------------------------------------------------------------------
# record -> load -> explain -> replay
# ---------------------------------------------------------------------
def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def record_replay_op(cell, graph, params, seed, rec, workdir: Path):
    """One record-replay op; returns ``(result, extras)``.

    ``extras`` holds the instrumented run's wall, the replay verdict
    and the byte counts — cheap to collect, so the untraced passes
    collect them too.
    """
    label = f"{cell.graph}-{cell.algorithm}"
    chrome_path = workdir / f"{label}.trace.json"
    jsonl_path = workdir / f"{label}.trace.jsonl"
    meta = {"engine": cell.engine, "algorithm": cell.algorithm,
            "graph": cell.graph, "num_gpus": cell.gpus,
            "partitioner": "random"}
    tracer = Tracer(
        sinks=[ChromeTraceSink(chrome_path, meta=meta),
               JsonlSink(jsonl_path, meta=meta)],
        meta=meta,
    )
    metrics = MetricsRegistry()
    registry = RunRegistry(workdir / "runs")
    start = time.perf_counter()
    result = run_cell(cell, graph, params, seed, rec,
                      tracer=tracer, metrics=metrics)
    run_wall = time.perf_counter() - start
    with rec.span("obs.close"):
        tracer.close()
    with rec.span("runs.record"):
        run_id = registry.record_result(
            result,
            workload_fingerprint(
                engine=cell.engine, algorithm=cell.algorithm,
                graph=cell.graph, num_gpus=cell.gpus,
                partition_seed=seed,
            ),
            metrics=metrics.snapshot(),
        )
    with rec.span("runs.load"):
        registry.load_manifest(run_id)
        payload = registry.load_ledger(run_id)
    with rec.span("obs.ledger_load"):
        ledger = Ledger.from_dict(payload)
    with rec.span("obs.explain"):
        lines = explain_lines(ledger)
    with rec.span("replay.replay"):
        replayed = replay_run(registry, run_id)
    extras = {
        "run_wall": run_wall,
        "obs_seconds": result.obs_seconds,
        "bit_identical": bool(replayed.bit_identical),
        "explain_lines": len(lines),
        "trace_bytes": os.path.getsize(chrome_path)
        + os.path.getsize(jsonl_path),
        "run_bytes": _tree_bytes(registry.root / run_id),
    }
    return result, extras


# ---------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------
def oracle_mismatch(cell, graph, params, values) -> str:
    """Empty string when ``values`` match the scipy oracle, else why."""
    name = cell.algorithm
    if name == "bfs":
        expected = validate.reference_bfs(graph, params["source"])
    elif name == "sssp":
        expected = validate.reference_sssp(graph, params["source"])
    elif name == "wcc":
        expected = validate.reference_wcc(graph)
    else:
        expected = validate.reference_pagerank(graph, **params)
        worst = float(np.abs(values - expected).max())
        return "" if worst < PR_ORACLE_ATOL else (
            f"pagerank off the oracle by {worst:.3e}"
        )
    if np.array_equal(values, expected):
        return ""
    return f"{int(np.count_nonzero(values != expected))} values differ"
