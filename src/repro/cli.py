"""Command-line interface: run experiments without writing Python.

Examples::

    python -m repro datasets
    python -m repro topology --gpus 8
    python -m repro run --graph LJ --algorithm bfs --engine gum
    python -m repro run --graph USA --algorithm sssp --engine gum \
        --gpus 4 --partitioner metis --no-osteal --json
    python -m repro compare --graph TX --algorithm sssp
    python -m repro profile --graph LJ --algorithm bfs --engine gum \
        --out run.trace.json
    python -m repro run --graph TX --algorithm bfs --record
    python -m repro runs list
    python -m repro runs analyze latest --scale-gpu 0=0.5
    python -m repro runs diff benchmarks/reference/tx-bfs-4gpu latest
    python -m repro explain latest --iteration 3
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from repro import __version__
from repro.algorithms import ALGORITHMS
from repro.bench.workloads import ENGINE_NAMES
from repro.errors import ReproError
from repro.graph.datasets import DATASETS
from repro.partition.partitioners import PARTITIONERS

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos import ChaosScenario
    from repro.core import GumConfig
    from repro.hardware import Topology
    from repro.runtime import RunResult

# The parser needs only the registries' names above, which their
# modules give without importing NumPy; every handler imports what it
# runs, so ``--help``, argument errors and the reading verbs (explain,
# replay, ...) never load the engine stack they do not use.
# tests/test_ci_lint.py holds this file's module-level imports to an
# allow-list.

__all__ = ["main", "build_parser"]


def _add_run_args(p: argparse.ArgumentParser) -> None:
    """Attach the shared workload arguments."""
    p.add_argument("--graph", required=True,
                   choices=list(DATASETS))
    p.add_argument("--algorithm", required=True,
                   choices=sorted(ALGORITHMS))
    p.add_argument("--gpus", type=int, default=8,
                   choices=range(1, 9))
    p.add_argument("--partitioner", default="random",
                   choices=sorted(PARTITIONERS))
    p.add_argument("--solver", default="greedy",
                   choices=("greedy", "lp", "bnb", "highs"))
    p.add_argument(
        "--cost-model", default="default", metavar="NAME|PATH",
        help="cost model: 'default' (shipped polynomial), "
             "'oracle', 'uniform', or a path to a "
             "repro-costmodel/1 artifact from "
             "'repro costmodel fit' (see docs/costmodel.md)",
    )
    p.add_argument("--no-fsteal", action="store_true")
    p.add_argument("--no-osteal", action="store_true")
    p.add_argument("--no-hub-cache", action="store_true")
    p.add_argument(
        "--no-amortize", action="store_true",
        help="disable decision amortization (plan cache, warm "
             "starts, incremental OSteal) for exact-mode "
             "reproduction of paper figures",
    )
    p.add_argument(
        "--topology", metavar="SPEC", default=None,
        help="machine shape: 'nodes=NxG' (e.g. nodes=2x4) for an "
             "N-node cluster of G-GPU servers with two-level "
             "hierarchical stealing; default is the --gpus DGX-1 "
             "sub-topology. When given, the worker count is N*G "
             "and --gpus is ignored",
    )
    p.add_argument("--json", action="store_true",
                   help="emit a JSON summary")
    p.add_argument(
        "--chaos", metavar="SCENARIO.json", default=None,
        help="inject faults from a chaos scenario file "
             "(see docs/robustness.md and benchmarks/scenarios/)",
    )


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """Attach the shared observability arguments."""
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record the run: *.jsonl for raw span records, "
             "anything else for Chrome trace_event JSON",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="collect and print the run's metrics snapshot",
    )


def _add_runs_dir_arg(p: argparse.ArgumentParser) -> None:
    """Attach the registry-location argument."""
    p.add_argument(
        "--runs-dir", metavar="DIR", default=None,
        help="run registry directory (default: $REPRO_RUNS_DIR "
             "or .repro/runs)",
    )


def _add_record_args(p: argparse.ArgumentParser) -> None:
    """Attach the run-registry recording arguments."""
    p.add_argument(
        "--record", action="store_true",
        help="archive this run (manifest + trace) in the run registry",
    )
    _add_runs_dir_arg(p)


def _add_engine_arg(p: argparse.ArgumentParser) -> None:
    """Attach the engine choice of the single-engine verbs."""
    p.add_argument("--engine", default="gum",
                   choices=ENGINE_NAMES + ("gum-nosteal", "bsp"))


#: the ``ref`` help of the verbs that default to the latest run
_LATEST_REF_HELP = (
    "run reference (default: latest; also accepts a run "
    "directory path such as benchmarks/reference/tx-bfs-4gpu)"
)


def _add_ref_arg(p: argparse.ArgumentParser, help: str,
                 optional: bool = False,
                 default: Optional[str] = None) -> None:
    """Attach the recorded-run positional; an optional one falls back
    to ``default``."""
    if optional:
        p.add_argument("ref", nargs="?", default=default, help=help)
    else:
        p.add_argument("ref", help=help)


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.graph.datasets import load
    from repro.graph.properties import degree_summary, pseudo_diameter

    print(f"{'abbr':5s} {'original':18s} {'domain':6s} "
          f"{'|V|':>8s} {'|E|':>9s} {'diam~':>6s} {'gini':>5s}")
    for abbr, spec in DATASETS.items():
        if args.domain and spec.domain != args.domain:
            continue
        graph = load(abbr)
        summary = degree_summary(graph)
        print(f"{abbr:5s} {spec.original_name:18s} {spec.domain:6s} "
              f"{graph.num_vertices:8d} {graph.num_edges:9d} "
              f"{pseudo_diameter(graph):6d} {summary.gini:5.2f}")
    return 0


def _register_datasets(sub) -> None:
    p_datasets = sub.add_parser(
        "datasets", help="list the bundled Table-II graph stand-ins"
    )
    p_datasets.add_argument("--domain", choices=("SN", "WG", "RN"),
                            default="")
    p_datasets.set_defaults(func=_cmd_datasets)


def _cmd_calibration(args: argparse.Namespace) -> int:
    from repro.bench.calibration import format_calibration
    from repro.hardware import dgx1

    print(format_calibration(dgx1(args.gpus)))
    return 0


def _register_calibration(sub) -> None:
    p_calibration = sub.add_parser(
        "calibration", help="show the virtual machine's timing constants"
    )
    p_calibration.add_argument("--gpus", type=int, default=8,
                               choices=range(1, 9))
    p_calibration.set_defaults(func=_cmd_calibration)


def _cmd_topology(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.hardware import dgx1

    topology = dgx1(args.gpus)
    np.set_printoptions(precision=1, suppress=True, linewidth=120)
    print(f"{topology!r}")
    print("NVLink lanes:")
    print(topology.lane_matrix)
    print("effective bandwidth (GB/s):")
    print(topology.effective_bandwidth_matrix())
    ring = topology.find_ring()
    print(f"NVLink ring: {ring if ring else 'none (odd sub-topology)'}")
    return 0


def _register_topology(sub) -> None:
    p_topology = sub.add_parser(
        "topology", help="show the virtual NVLink topology"
    )
    p_topology.add_argument("--gpus", type=int, default=8,
                            choices=range(1, 9))
    p_topology.set_defaults(func=_cmd_topology)


def _trace_path(path: str) -> str:
    """Fail fast on an unwritable trace path.

    ``ChromeTraceSink`` buffers and only writes on close; without this
    check a missing parent directory would crash *after* the whole run
    and lose it.
    """
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # e.g. a parent component that exists as a regular file: make
        # it a one-line ReproError (exit 2), not a traceback
        raise ReproError(f"cannot create trace path {path}: {exc}") from exc
    return path


def _registry_from_args(args: argparse.Namespace):
    """Registry at ``--runs-dir``, ``$REPRO_RUNS_DIR``, or the default."""
    from repro.runs import RunRegistry

    root = (getattr(args, "runs_dir", None)
            or os.environ.get("REPRO_RUNS_DIR"))
    return RunRegistry(root)


class _Request(NamedTuple):
    """What ``run`` / ``compare`` / ``profile`` / ``runs record`` were
    asked to run, resolved once per invocation into plain values.

    The cell, every trace header and the recorded fingerprint read
    ``num_gpus`` from here, so they cannot disagree under
    ``--topology`` (which overrides ``--gpus``); every engine of a
    ``compare`` shares the cost-model instance and the parsed scenario.
    """

    algorithm: str
    graph: str
    num_gpus: int
    partitioner: str
    topology: Optional[Topology]  # None: the --gpus DGX-1 sub-topology
    topology_spec: Optional[str]
    gum_config: GumConfig
    scenario: Optional[ChaosScenario]

    def meta(self, engine: str) -> dict:
        """Run-level annotations of every trace header."""
        return {
            "engine": engine,
            "algorithm": self.algorithm,
            "graph": self.graph,
            "num_gpus": self.num_gpus,
            "partitioner": self.partitioner,
        }

    def workload(self, engine: str) -> dict:
        """The identity half of a recorded run's fingerprint."""
        from repro.core.costmodel import model_label
        from repro.runs.registry import workload_fingerprint

        config = self.gum_config
        return workload_fingerprint(
            **self.meta(engine),
            solver=config.solver,
            cost_model=model_label(config.cost_model),
            amortize=config.amortize,
            chaos=(self.scenario.name if self.scenario is not None
                   else "none"),
            topology=self.topology_spec or "default",
        )


def _request_from_args(args: argparse.Namespace) -> _Request:
    """Resolve the ``_add_run_args`` options; ``args`` is only read."""
    from repro.core import GumConfig
    from repro.core.costmodel import resolve_cost_model
    from repro.hardware import parse_topology

    topology = (
        parse_topology(args.topology) if args.topology is not None
        else None
    )
    scenario = None
    if args.chaos:
        from repro.chaos.scenario import ChaosScenario

        scenario = ChaosScenario.from_file(args.chaos)
    return _Request(
        algorithm=args.algorithm,
        graph=args.graph,
        num_gpus=topology.num_gpus if topology is not None else args.gpus,
        partitioner=args.partitioner,
        topology=topology,
        topology_spec=args.topology,
        gum_config=GumConfig(
            fsteal=not args.no_fsteal,
            osteal=not args.no_osteal,
            hub_cache=not args.no_hub_cache,
            solver=args.solver,
            cost_model=resolve_cost_model(args.cost_model),
            amortize=not args.no_amortize,
        ),
        scenario=scenario,
    )


def _trace_sinks(path: Optional[str]) -> dict:
    """``--trace`` by suffix: ``*.jsonl`` streams raw span records,
    anything else is Chrome ``trace_event`` JSON for Perfetto."""
    if not path:
        return {}
    return {"jsonl": path} if path.endswith(".jsonl") else {"chrome": path}


class _Observed:
    """What :func:`_observed_run` hands back for one engine: the
    result, the metrics snapshot (``None`` with no registry attached),
    the id it was recorded under (``None`` when it was not) and the
    run's :func:`result_summary`, folded on first read and then kept —
    the recorded manifest and ``--json`` print the same fold."""

    def __init__(self, result: RunResult, metrics: Optional[dict]) -> None:
        self.result = result
        self.metrics = metrics
        self.run_id: Optional[str] = None

    @functools.cached_property
    def summary(self) -> dict:
        from repro.runs.registry import result_summary

        return result_summary(self.result)


def _observed_run(
    request: _Request,
    engine: str,
    *,
    chrome: Optional[str] = None,
    jsonl: Optional[str] = None,
    metrics: bool = False,
    registry=None,
) -> _Observed:
    """Run ``engine`` on the requested workload under the observers
    asked for.

    The sinks are closed whether the run returns or raises, so a
    failed run still leaves its Chrome trace written; the error
    propagates to ``main()`` and nothing is archived in ``registry``
    (``None``: do not record).
    """
    from repro.bench.runner import Cell, run_cell
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import JsonlSink, Tracer

    chaos = None
    if request.scenario is not None:
        from repro.chaos.controller import ChaosController

        # fresh per engine: each engine of a ``compare`` replays the
        # scenario from a clean schedule
        chaos = ChaosController(request.scenario)
    meta = request.meta(engine)
    collected = MetricsRegistry() if metrics else None
    with Tracer(meta=meta) as tracer:
        if chrome:
            from repro.obs.chrome import ChromeTraceSink

            tracer.add_sink(ChromeTraceSink(_trace_path(chrome), meta=meta))
        if jsonl:
            tracer.add_sink(JsonlSink(_trace_path(jsonl), meta=meta))
        result = run_cell(
            Cell(engine, request.algorithm, request.graph,
                 request.num_gpus, request.partitioner),
            gum_config=request.gum_config,
            tracer=tracer if tracer.sinks else None,
            metrics=collected,
            chaos=chaos,
            topology=request.topology,
        )
    observed = _Observed(
        result, collected.snapshot() if collected is not None else None
    )
    if registry is not None:
        observed.run_id = registry.record_result(
            result, request.workload(engine), metrics=observed.metrics,
            summary=observed.summary,
        )
    return observed


def _cmd_run(args: argparse.Namespace) -> int:
    observed = _observed_run(
        _request_from_args(args),
        args.engine,
        **_trace_sinks(args.trace),
        metrics=args.metrics,
        registry=_registry_from_args(args) if args.record else None,
    )
    result, metrics, run_id = (
        observed.result, observed.metrics, observed.run_id
    )
    if args.json:
        payload = dict(observed.summary)
        if args.metrics:
            payload["metrics"] = metrics
        if run_id:
            payload["run_id"] = run_id
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{result.engine}/{result.algorithm} on {result.graph_name} "
          f"({result.num_gpus} GPUs, {args.partitioner} partition):")
    print(f"  virtual time : {result.total_ms:10.2f} ms "
          f"({result.num_iterations} iterations, "
          f"converged={result.converged})")
    print(f"  stall        : {result.stall_fraction():10.1%}")
    for bucket, ms in result.breakdown.scaled_ms().items():
        print(f"  {bucket:13s}: {ms:10.2f} ms")
    if args.trace:
        print(f"  trace        : {args.trace}")
    if run_id:
        print(f"  recorded     : {run_id}")
    if args.metrics:
        print("metrics:")
        print(json.dumps(metrics, indent=2))
    return 0


def _register_run(sub) -> None:
    p_run = sub.add_parser("run", help="run one engine on one workload")
    _add_run_args(p_run)
    _add_obs_args(p_run)
    _add_record_args(p_run)
    _add_engine_arg(p_run)
    p_run.set_defaults(func=_cmd_run)


def _engine_trace_path(base: Optional[str], engine: str) -> Optional[str]:
    """Per-engine artifact file for ``compare`` (one run, one file);
    an artifact that was not asked for stays ``None``."""
    if not base:
        return None
    path = Path(base)
    return str(path.with_name(f"{path.stem}.{engine}{path.suffix}"))


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    engines = ENGINE_NAMES
    if getattr(args, "chaos", None):
        # groute's asynchronous runtime has no superstep boundary to
        # inject at; compare the BSP-style engines under chaos
        engines = tuple(e for e in ENGINE_NAMES if e != "groute")
        print("note: skipping groute (fault injection requires a "
              "BSP-style engine)", file=sys.stderr)
    request = _request_from_args(args)
    registry = _registry_from_args(args) if args.record else None
    for engine in engines:
        observed = _observed_run(
            request,
            engine,
            **_trace_sinks(_engine_trace_path(args.trace, engine)),
            metrics=args.metrics,
            registry=registry,
        )
        rows.append((engine, observed))
    if args.json:
        payload = {}
        for engine, observed in rows:
            payload[engine] = dict(observed.summary)
            if args.metrics:
                payload[engine]["metrics"] = observed.metrics
            if observed.run_id:
                payload[engine]["run_id"] = observed.run_id
        print(json.dumps(payload, indent=2))
        return 0
    best = min(rows, key=lambda row: row[1].result.total_seconds)[0]
    print(f"{args.algorithm} on {args.graph} ({request.num_gpus} GPUs):")
    for engine, observed in rows:
        result = observed.result
        marker = "  <-- best" if engine == best else ""
        print(f"  {engine:8s}: {result.total_ms:10.2f} ms "
              f"({result.num_iterations} iters){marker}")
    if args.trace:
        for engine, _ in rows:
            print(f"  trace: {_engine_trace_path(args.trace, engine)}")
    for engine, observed in rows:
        if observed.run_id:
            print(f"  recorded: {engine} -> {observed.run_id}")
    return 0


def _register_compare(sub) -> None:
    p_compare = sub.add_parser(
        "compare", help="run all three engines on one workload"
    )
    _add_run_args(p_compare)
    _add_obs_args(p_compare)
    _add_record_args(p_compare)
    p_compare.set_defaults(func=_cmd_compare)


def _cmd_profile(args: argparse.Namespace) -> int:
    """One instrumented run -> Chrome trace + metrics snapshot."""
    observed = _observed_run(
        _request_from_args(args),
        args.engine,
        chrome=args.out,
        jsonl=args.jsonl,
        metrics=True,
        registry=_registry_from_args(args) if args.record else None,
    )
    result, run_id = observed.result, observed.run_id
    summary = dict(observed.summary)
    summary["metrics"] = observed.metrics
    summary["trace"] = args.out
    if args.jsonl:
        summary["trace_jsonl"] = args.jsonl
    if run_id:
        summary["run_id"] = run_id
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"{result.engine}/{result.algorithm} on "
              f"{result.graph_name} ({result.num_gpus} GPUs): "
              f"{result.total_ms:.2f} ms virtual, "
              f"{result.num_iterations} iterations")
        print(f"  fsteal iterations : {summary['fsteal_iterations']}")
        print(f"  mean group size   : {summary['mean_group_size']:.2f}")
        print(f"  stolen edges      : {summary['stolen_edges']}")
        cache = summary.get("decision_cache") or {}
        if cache.get("amortize"):
            print(
                "  decision cache    : "
                f"{int(cache.get('hits', 0))} hits / "
                f"{int(cache.get('misses', 0))} misses, "
                f"{int(cache.get('invalidations', 0))} stale, "
                f"{int(cache.get('warm_accepts', 0))} warm accepts, "
                f"{int(cache.get('osteal_z_reused', 0))} z reused"
            )
        led = summary.get("ledger")
        if led:
            rmsre = led.get("final_rmsre")
            rmsre_text = f"{rmsre:.4f}" if rmsre is not None else "-"
            print(
                "  decision ledger   : "
                f"{int(led.get('entries', 0))} decisions, "
                f"{int(led.get('samples', 0))} audit samples, "
                f"RMSRE {rmsre_text}"
                + (f"  (repro explain {run_id})" if run_id else "")
            )
        util = ", ".join(
            f"{u:.0%}" for u in summary["per_gpu_utilization"]
        )
        print(f"  per-GPU utilization: {util}")
        print(f"  chrome trace      : {args.out}  "
              "(open in Perfetto / chrome://tracing)")
        if args.jsonl:
            print(f"  span log          : {args.jsonl}")
        if run_id:
            print(f"  recorded          : {run_id}")
    if args.timeline:
        from repro.runtime.trace import render_timeline

        print(render_timeline(result))
    return 0


def _register_profile(sub) -> None:
    p_profile = sub.add_parser(
        "profile",
        help="run one workload fully instrumented and export a "
             "Perfetto-loadable Chrome trace",
    )
    _add_run_args(p_profile)
    _add_engine_arg(p_profile)
    p_profile.add_argument(
        "--out", required=True, metavar="PATH",
        help="Chrome trace_event JSON output file",
    )
    p_profile.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="also stream raw span records as JSON lines",
    )
    p_profile.add_argument(
        "--timeline", action="store_true",
        help="also print the ASCII per-GPU timeline",
    )
    _add_record_args(p_profile)
    p_profile.set_defaults(func=_cmd_profile)


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run benchmark cases; gate them against the baseline.

    Exit code 1 means a case reported a violation of its own
    invariants or (timed cases) regressed by more than the threshold on its machine-normalized
    score (see ``docs/performance.md`` for the normalization and how
    to refresh a committed baseline).
    """
    from repro.bench import perfharness

    if args.list_cases:
        for name in sorted(perfharness.BENCH_CASES):
            print(name)
        return 0
    report = perfharness.run_suite(
        names=args.filter, repeats=args.repeats
    )
    out_path = _trace_path(args.out)
    perfharness.write_report(report, out_path)
    run_id = None
    if getattr(args, "record", False):
        run_id = _registry_from_args(args).record_bench(report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(perfharness.format_report(report))
        print(f"report: {out_path}")
    if run_id:
        print(f"recorded: {run_id}")
    if args.update_baseline:
        perfharness.write_report(report, _trace_path(args.baseline))
        print(f"baseline refreshed: {args.baseline}")
        return 0
    if args.no_compare:
        return 0
    threshold = (
        perfharness.DEFAULT_THRESHOLD
        if args.threshold is None else args.threshold
    )
    if Path(args.baseline).exists():
        baseline = perfharness.load_report(args.baseline)
    else:
        print(f"no baseline at {args.baseline}; gating only the cases' "
              "own violations (run with --update-baseline to create "
              "one)")
        baseline = {"schema": perfharness.SCHEMA, "benchmarks": {}}
    regressions = perfharness.compare_reports(
        report, baseline, threshold=threshold,
    )
    noisy = sum(reg.timing for reg in regressions)
    if noisy:
        print(f"re-measuring {noisy} regressed case(s) to rule out "
              "host noise...")
        regressions = perfharness.confirm_regressions(
            regressions, baseline, threshold=threshold,
            repeats=args.repeats,
        )
    if regressions:
        print(perfharness.format_regressions(regressions),
              file=sys.stderr)
        return 1
    print(f"gate: ok ({len(report['benchmarks'])} case(s), no violation "
          f"and none regressed >{threshold:.0%} vs {args.baseline})")
    return 0


def _register_bench(sub) -> None:
    p_bench = sub.add_parser(
        "bench",
        help="run benchmark cases (the hot-path microbenchmarks; "
             "costmodel.*, replay.* via --filter) and gate "
             "them against the committed baseline",
    )
    p_bench.add_argument(
        "--out", metavar="PATH", default="BENCH_hotpath.json",
        help="machine-readable report output (default: %(default)s)",
    )
    p_bench.add_argument(
        "--baseline", metavar="PATH",
        default="benchmarks/perf/baseline.json",
        help="committed baseline to gate against (default: %(default)s)",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=None,
        help="normalized-score regression tolerance "
             "(default: 0.30 = fail on >30%% regression)",
    )
    p_bench.add_argument(
        "--filter", action="append", default=None, metavar="SUBSTR",
        help="only run cases whose name contains SUBSTR (repeatable)",
    )
    p_bench.add_argument(
        "--list-cases", action="store_true",
        help="print the registered case names and exit",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per case (best-of; default %(default)s)",
    )
    p_bench.add_argument(
        "--update-baseline", action="store_true",
        help="write the fresh report over --baseline instead of "
             "comparing against it",
    )
    p_bench.add_argument(
        "--no-compare", action="store_true",
        help="measure and write the report without gating",
    )
    p_bench.add_argument("--json", action="store_true",
                         help="print the report JSON instead of a table")
    _add_record_args(p_bench)
    p_bench.set_defaults(func=_cmd_bench)


def _cmd_costmodel_fit(args: argparse.Namespace) -> int:
    """Fit a cost model from recorded runs; emit an artifact."""
    from repro.core.costmodel import artifact_label, save_artifact
    from repro.core.costmodel_fit import fit_candidates, harvest

    registry = _registry_from_args(args)
    corpus = harvest(registry, refs=args.from_runs or None)
    outcome = fit_candidates(
        corpus,
        model=args.model,
        folds=args.folds,
        holdout_frac=args.holdout_frac,
        seed=args.seed,
    )
    artifact = save_artifact(
        outcome.model, args.out, provenance=outcome.report()
    )
    report = outcome.report()
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        payload = dict(report)
        payload["artifact"] = args.out
        payload["artifact_label"] = artifact_label(artifact)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        corpus_info = report["corpus"]
        print(
            f"harvested {corpus_info['samples']} samples from "
            f"{len(corpus_info['runs'])} run(s) "
            f"({len(corpus_info['duplicates'])} duplicate(s) skipped, "
            f"{len(corpus_info['empty_runs'])} unledgered)"
        )
        for name in sorted(report["candidates"]):
            candidate = report["candidates"][name]
            marker = "  <-- chosen" if name == report["family"] else ""
            print(f"  {name:12s}: held-out RMSRE "
                  f"{candidate['cv_rmsre']:.4f}{marker}")
        print(f"  {'shipped':12s}: held-out RMSRE "
              f"{report['shipped_rmsre']:.4f}  (baseline)")
        verdict = "beats" if report["beats_shipped"] else \
            "DOES NOT beat"
        print(f"{report['family']} {verdict} the shipped model "
              f"({report['holdout_rmsre']:.4f} vs "
              f"{report['shipped_rmsre']:.4f}); artifact: {args.out}")
        if args.report:
            print(f"report: {args.report}")
    if args.gate and not report["beats_shipped"]:
        print("gate: fitted model does not beat the shipped "
              "polynomial held out", file=sys.stderr)
        return 1
    return 0


def _register_costmodel(sub) -> None:
    p_costmodel = sub.add_parser(
        "costmodel",
        help="cost model: fit from recorded runs, emit "
             "repro-costmodel/1 artifacts",
    )
    costmodel_sub = p_costmodel.add_subparsers(
        dest="costmodel_command", required=True
    )

    p_fit = costmodel_sub.add_parser(
        "fit",
        help="harvest ledger samples from recorded runs and fit "
             "candidate models with held-out RMSRE reporting",
    )
    p_fit.add_argument(
        "--from-runs", nargs="+", metavar="REF", default=None,
        help="run references to harvest (ids, prefixes, 'latest', or "
             "run directory paths such as "
             "benchmarks/reference/tx-bfs-4gpu); default: every "
             "ledgered run in the registry",
    )
    p_fit.add_argument(
        "--model", default="auto",
        choices=("auto", "polynomial", "linear", "tree", "svr"),
        help="candidate family (default: auto = pick the lowest "
             "held-out RMSRE)",
    )
    p_fit.add_argument(
        "--folds", type=int, default=5,
        help="cross-validation folds (default %(default)s)",
    )
    p_fit.add_argument(
        "--holdout-frac", type=float, default=None, metavar="F",
        help="use one fractional holdout split instead of k folds "
             "(e.g. 0.2 holds out 20%% of the samples)",
    )
    p_fit.add_argument(
        "--seed", type=int, default=0,
        help="shuffle seed of the held-out splits (default %(default)s)",
    )
    p_fit.add_argument(
        "--out", metavar="PATH", default="costmodel.json",
        help="repro-costmodel/1 artifact output (default: %(default)s)",
    )
    p_fit.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the full fit report as JSON",
    )
    p_fit.add_argument(
        "--gate", action="store_true",
        help="exit 1 unless the fitted model beats the shipped "
             "polynomial held out (the CI assertion)",
    )
    p_fit.add_argument("--json", action="store_true")
    _add_runs_dir_arg(p_fit)
    p_fit.set_defaults(func=_cmd_costmodel_fit)


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay a recorded run, optionally under modified physics."""
    from repro.replay import format_replay_result, replay_run

    result = replay_run(
        _registry_from_args(args),
        args.ref,
        cost_model=args.cost_model,
        topology=args.topology,
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_replay_result(result))
    if args.check and not result.bit_identical:
        print("replay check: not bit-identical to the recording",
              file=sys.stderr)
        return 1
    return 0


def _register_replay(sub) -> None:
    p_replay = sub.add_parser(
        "replay",
        help="replay a recorded run's decision sequence, optionally "
             "under a different cost model or topology, with "
             "per-iteration error attribution",
    )
    _add_ref_arg(
        p_replay,
        "run reference (id, prefix, 'latest', or a run directory "
        "path such as benchmarks/reference/tx-bfs-4gpu)",
    )
    p_replay.add_argument(
        "--cost-model", metavar="NAME|PATH", default=None,
        help="replay under this model instead of the recorded one: "
             "'default', 'uniform', or a repro-costmodel/1 artifact "
             "path; omit for the original model (bit-identical)",
    )
    p_replay.add_argument(
        "--topology", metavar="SPEC", default=None,
        help="rescale the recorded communication time under this "
             "machine shape ('dgx1' or 'nodes=NxG'; worker count must "
             "match the recording)",
    )
    p_replay.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the replay is bit-identical to the "
             "recording (original model, no overrides)",
    )
    p_replay.add_argument("--json", action="store_true")
    _add_runs_dir_arg(p_replay)
    p_replay.set_defaults(func=_cmd_replay)


def _cmd_runs_record(args: argparse.Namespace) -> int:
    """Run one workload fully instrumented and archive it."""
    registry = _registry_from_args(args)
    observed = _observed_run(
        _request_from_args(args), args.engine,
        metrics=True, registry=registry,
    )
    result, run_id = observed.result, observed.run_id
    if args.json:
        payload = dict(observed.summary)
        payload["run_id"] = run_id
        payload["runs_dir"] = str(registry.root)
        print(json.dumps(payload, indent=2))
    else:
        print(f"recorded {run_id} "
              f"({result.total_ms:.2f} ms, "
              f"{result.num_iterations} iterations) "
              f"under {registry.root}")
    return 0


def _register_runs_record(runs_sub) -> None:
    p_record = runs_sub.add_parser(
        "record", help="run one workload instrumented and archive it"
    )
    _add_run_args(p_record)
    _add_engine_arg(p_record)
    _add_runs_dir_arg(p_record)
    p_record.set_defaults(func=_cmd_runs_record)


def _cmd_runs_list(args: argparse.Namespace) -> int:
    registry = _registry_from_args(args)
    manifests = registry.manifests()
    if args.json:
        print(json.dumps(
            [{"id": m.get("id"), "kind": m.get("kind"),
              "created": m.get("created"),
              "total_ms": m.get("summary", {}).get("total_ms")}
             for m in manifests],
            indent=2,
        ))
        return 0
    if not manifests:
        print(f"no runs recorded under {registry.root}")
        return 0
    print(f"{'id':48s} {'kind':5s} {'total':>12s}  created")
    for manifest in manifests:
        total = manifest.get("summary", {}).get("total_ms")
        total_text = f"{total:9.2f} ms" if total is not None else "-"
        print(f"{manifest.get('id', '?'):48s} "
              f"{manifest.get('kind', '?'):5s} "
              f"{total_text:>12s}  {manifest.get('created', '?')}")
    return 0


def _register_runs_list(runs_sub) -> None:
    p_list = runs_sub.add_parser("list", help="list recorded runs")
    p_list.add_argument("--json", action="store_true")
    _add_runs_dir_arg(p_list)
    p_list.set_defaults(func=_cmd_runs_list)


def _cmd_runs_show(args: argparse.Namespace) -> int:
    manifest = _registry_from_args(args).load_manifest(args.ref)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _register_runs_show(runs_sub) -> None:
    p_show = runs_sub.add_parser(
        "show", help="print one run's manifest"
    )
    _add_ref_arg(
        p_show,
        "run id (or unique prefix), 'latest', or a path to a run "
        "directory / manifest.json",
    )
    _add_runs_dir_arg(p_show)
    p_show.set_defaults(func=_cmd_runs_show)


def _gpu_scale_pair(text: str) -> Tuple[int, float]:
    """Parse a ``GPU=FACTOR`` what-if operand (``0=0.5``)."""
    key, sep, value = text.replace(":", "=").partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected GPU=FACTOR (e.g. 0=0.5), got {text!r}"
        )
    try:
        return int(key), float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected GPU=FACTOR (e.g. 0=0.5), got {text!r}"
        ) from exc


def _cmd_runs_analyze(args: argparse.Namespace) -> int:
    """Critical-path attribution (and optional what-if) of a run."""
    from repro.obs import analysis

    source = analysis.iteration_costs(
        _registry_from_args(args).load_run_trace(args.ref)
    )
    whatif = analysis.WhatIf(
        gpu_compute_scale=dict(args.scale_gpu or []),
        compute_scale=args.scale_compute,
        zero_decision_overhead=args.zero_overhead,
        drop_fsteal=args.drop_fsteal,
    )
    report = analysis.analyze(source)
    payload = {"analysis": report.as_dict()}
    if not whatif.is_noop():
        outcome = analysis.replay(source, whatif)
        payload["whatif"] = outcome.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(analysis.format_report(report))
    if not whatif.is_noop():
        print(analysis.format_replay(outcome))
    return 0


def _register_runs_analyze(runs_sub) -> None:
    p_analyze = runs_sub.add_parser(
        "analyze",
        help="critical-path attribution and what-if replay of a "
             "recorded run",
    )
    _add_ref_arg(p_analyze, "run reference (see 'runs show')")
    p_analyze.add_argument(
        "--scale-gpu", action="append", metavar="GPU=FACTOR",
        type=_gpu_scale_pair, default=None,
        help="what-if: scale GPU's compute time by FACTOR "
             "(repeatable; 0=0.5 halves gpu0's compute)",
    )
    p_analyze.add_argument(
        "--scale-compute", type=float, default=1.0, metavar="FACTOR",
        help="what-if: scale every GPU's compute time by FACTOR",
    )
    p_analyze.add_argument(
        "--zero-overhead", action="store_true",
        help="what-if: zero the coordinator's decision overhead "
             "(free solver)",
    )
    p_analyze.add_argument(
        "--drop-fsteal", action="store_true",
        help="what-if: charge stolen edges back to each superstep's "
             "straggler (undo FSteal, first-order)",
    )
    p_analyze.add_argument("--json", action="store_true")
    _add_runs_dir_arg(p_analyze)
    p_analyze.set_defaults(func=_cmd_runs_analyze)


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    """Exit 1 when a gated metric regressed beyond the threshold."""
    from repro.bench import perfharness
    from repro.runs import diff_manifests, format_diff

    registry = _registry_from_args(args)
    base = registry.load_manifest(args.base)
    current = registry.load_manifest(args.current)
    threshold = (
        perfharness.DEFAULT_THRESHOLD
        if args.threshold is None else args.threshold
    )
    diff = diff_manifests(base, current, threshold=threshold,
                          force=args.force)
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_diff(diff, verbose=not args.quiet))
    return 0 if diff.ok else 1


def _register_runs_diff(runs_sub) -> None:
    p_diff = runs_sub.add_parser(
        "diff",
        help="compare two recorded runs; exit 1 on gated regressions",
    )
    p_diff.add_argument("base", help="baseline run reference")
    p_diff.add_argument("current", help="candidate run reference")
    p_diff.add_argument(
        "--threshold", type=float, default=None,
        help="relative regression tolerance (default: 0.30)",
    )
    p_diff.add_argument(
        "--force", action="store_true",
        help="diff even when the workload fingerprints differ",
    )
    p_diff.add_argument(
        "--quiet", action="store_true",
        help="only show regressions and notes, not every metric",
    )
    p_diff.add_argument("--json", action="store_true")
    _add_runs_dir_arg(p_diff)
    p_diff.set_defaults(func=_cmd_runs_diff)


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    registry = _registry_from_args(args)
    removed = registry.gc(keep=args.keep, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for run_id in removed:
        print(f"{verb} {run_id}")
    print(f"{verb} {len(removed)} run(s); keeping newest {args.keep}")
    return 0


def _register_runs_gc(runs_sub) -> None:
    p_gc = runs_sub.add_parser(
        "gc", help="delete all but the newest runs"
    )
    p_gc.add_argument("--keep", type=int, default=20,
                      help="runs to keep (default %(default)s)")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be deleted, delete nothing")
    _add_runs_dir_arg(p_gc)
    p_gc.set_defaults(func=_cmd_runs_gc)


def _register_runs(sub) -> None:
    p_runs = sub.add_parser(
        "runs",
        help="the persistent run registry: record, inspect, analyze, "
             "and diff archived runs",
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    for register in (
        _register_runs_record, _register_runs_list, _register_runs_show,
        _register_runs_analyze, _register_runs_diff, _register_runs_gc,
    ):
        register(runs_sub)


def _cmd_explain(args: argparse.Namespace) -> int:
    """Explain a recorded run's decisions from its archived ledger."""
    from repro.obs.ledger import Ledger, explain_lines

    payload = _registry_from_args(args).load_ledger(args.ref)
    ledger = Ledger.from_dict(payload)
    if args.json:
        shown = (
            payload if args.iteration is None
            else ledger.entry(args.iteration)
        )
        print(json.dumps(shown, indent=2, sort_keys=True))
        return 0
    for line in explain_lines(ledger, iteration=args.iteration):
        print(line)
    return 0


def _register_explain(sub) -> None:
    p_explain = sub.add_parser(
        "explain",
        help="explain a recorded run's stealing decisions from its "
             "archived ledger: per-decision audit, prediction error, "
             "model drift",
    )
    _add_ref_arg(p_explain, _LATEST_REF_HELP, optional=True,
                 default="latest")
    p_explain.add_argument(
        "--iteration", type=int, default=None, metavar="N",
        help="drill into one iteration's decision: features, "
             "candidates, chosen plan, per-fragment audit samples",
    )
    p_explain.add_argument(
        "--json", action="store_true",
        help="emit the raw repro-ledger/1 payload (or, with "
             "--iteration, that entry) instead of the report",
    )
    _add_runs_dir_arg(p_explain)
    p_explain.set_defaults(func=_cmd_explain)


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser: one registrar per verb, each
    next to the handler it dispatches to."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GUM reproduction: multi-GPU graph processing with "
                    "remote work stealing, on a simulated machine.",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for register in (
        _register_datasets, _register_topology, _register_calibration,
        _register_run, _register_compare, _register_profile,
        _register_bench, _register_costmodel, _register_replay,
        _register_runs, _register_explain,
    ):
        register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # every library failure (bad scenario file, registry miss,
        # exhausted solver chain, ...) is one line and exit code 2 —
        # tracebacks are for bugs, not for bad inputs
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
