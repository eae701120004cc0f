"""The four workloads, the metric catalogue, and one workload process.

A *rep* is one fresh interpreter executing one workload: set-up (timed
from interpreter start to the first timed pass), the timed passes with
benchmark spans off, then — when asked — the traced passes and the
verification phase. ``run.py`` starts the reps and folds their results.

Why these four (each stresses layers the others bypass):

* ``cold-cli`` — process start -> exit of seven CLI commands. ``cli``,
  the import graph and the cost-model load do almost all the work and
  the engine almost none.
* ``tail-road`` — hundreds of near-empty supersteps on road/web-chain
  graphs: the arbitrator's ``plan`` (OSteal/FSteal + prediction audit)
  is most of the run, the superstep kernel a few percent.
* ``dense-social`` — few supersteps over big frontiers: ``runtime``
  self time and ``algorithms.step`` do the work, ``core.plan`` little;
  two cells run the same kernels through ``baselines``' own loops.
* ``record-replay`` — the same ``runtime``+``core`` path instrumented,
  recorded, loaded, explained and replayed: the only workload where
  ``obs``, ``runs``, ``replay`` and serialization run.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import spans as spans_mod

Cell = namedtuple("Cell", "graph algorithm gpus engine")
Spec = namedtuple("Spec", "kind cells why")


def _gum(graph, algorithm, gpus=8):
    return Cell(graph, algorithm, gpus, "gum")


def cell_label(cell) -> str:
    return "{0.graph}/{0.algorithm}@{0.gpus}/{0.engine}".format(cell)


WORKLOADS = {
    "cold-cli": Spec(
        "cli", [Cell("TX", "bfs", 4, "gum")],
        "process start to exit of seven CLI commands: import graph, "
        "parser and cost-model load dominate, the engine is ~1%",
    ),
    "tail-road": Spec(
        "run",
        [_gum("USA", "sssp"), _gum("EU", "sssp"), _gum("WB", "bfs"),
         _gum("TX", "bfs", 4)],
        "long tail: 1723 near-empty supersteps, so the arbitrator's "
        "plan (steal search + prediction audit) is most of the wall",
    ),
    "dense-social": Spec(
        "run",
        [_gum("CF", "pr"), _gum("TW", "pr"), _gum("CF", "wcc"),
         _gum("IT", "wcc"), _gum("U5", "sssp"), _gum("CF", "bfs"),
         _gum("LJ", "bfs"), Cell("U5", "sssp", 8, "gunrock"),
         Cell("CF", "wcc", 8, "groute")],
        "78 supersteps over big frontiers: runtime self time and the "
        "superstep kernel dominate, plan is small; two baseline cells",
    ),
    "record-replay": Spec(
        "record",
        [_gum("USA", "sssp"), _gum("WB", "bfs"), _gum("CF", "pr"),
         _gum("TX", "bfs", 4)],
        "instrumented run, trace close, registry record and load, "
        "explain and replay: the only workload that runs obs/runs/replay",
    ),
}

#: timed-pass counts per rep when no ``--seconds`` budget is given
#: (three reps: 3 / 9 / 12 / 9 passes per workload)
PASSES_PER_REP = {"cold-cli": 1, "tail-road": 3, "dense-social": 4,
                  "record-replay": 3}

# name, unit, better, bound — the bounded end-to-end metrics. The
# reference host changes speed by several percent for minutes at a time
# (same code, same seed): ten-run spreads of 6-11% were measured, so the
# timing bounds sit at the contract's cap rather than the 10% first
# asked for. README.md has the measurements.
E2E_METRICS = [
    ("wall_s", "s", "lower", 0.25),
    ("steps_per_s", "steps/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]
# end-to-end metrics that repeat exactly; any difference is a finding
EXACT_METRICS = [
    ("virtual_ms", "virtual_ms", "lower"),
    ("virtual_speedup_x", "x", "higher"),
    ("ops", "count", "higher"),
    ("failed_ops", "count", "lower"),
]

CLI_COMMANDS = ["import", "help", "run_gum", "run_bsp", "profile_record",
                "explain", "replay_check"]


def _layer_catalogue():
    seconds = (
        [f"cli.{name}_s" for name in CLI_COMMANDS]
        + ["cli.parser_s", "cli.model_load_s", "core.costmodel.load_s",
           "core.plan_s", "core.audit_s", "core.observe_s",
           "core.begin_run_s", "core.finish_run_s",
           "algorithms.init_s", "algorithms.step_s",
           "runtime.run_s", "runtime.self_s",
           "facade.overhead_s", "partition.make_s",
           "hardware.topology_s", "engine.build_s",
           "graph.build_s", "graph.prepare_s",
           "baselines.gunrock_run_s", "baselines.groute_run_s",
           "obs.emit_s", "obs.instrumented_overhead_s", "obs.close_s",
           "obs.ledger_load_s", "obs.explain_s",
           "runs.record_s", "runs.load_s", "replay.replay_s",
           "setup.import_s", "setup.warmup_pass_s", "setup.other_s"]
    )
    catalogue = [(name, "s", "lower") for name in seconds]
    catalogue += [
        ("core.plan_calls", "count", "lower"),
        ("core.plan_us_per_call", "us", "lower"),
        ("core.cache_hits", "count", "higher"),
        ("core.cache_misses", "count", "lower"),
        ("core.cache_hit_ratio", "ratio", "higher"),
        ("core.warm_accepts", "count", "higher"),
        ("core.osteal_z_evaluated", "count", "lower"),
        ("core.fsteal_iters", "count", "lower"),
        ("core.stolen_edges", "count", "lower"),
        ("core.ledger_entries", "count", "lower"),
        ("core.ledger_samples", "count", "lower"),
        ("algorithms.steps", "count", "lower"),
        ("algorithms.frontier_edges", "count", "lower"),
        ("algorithms.edges_per_s", "edges/s", "higher"),
        ("runtime.supersteps", "count", "lower"),
        ("runtime.self_us_per_step", "us", "lower"),
        ("graph.vertices", "count", "lower"),
        ("graph.edges", "count", "lower"),
        ("obs.trace_bytes", "bytes", "lower"),
        ("runs.bytes_written", "bytes", "lower"),
        ("replay.bit_identical", "ratio", "higher"),
        ("trace.overhead_pct", "%", "lower"),
        ("virtual_ms", "virtual_ms", "lower"),
        ("virtual_speedup_x", "x", "higher"),
    ]
    return catalogue


LAYER_METRICS = _layer_catalogue()


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------
# a rep: one workload in this (fresh) interpreter
# ---------------------------------------------------------------------
class Rep:
    """Shared pass loop; subclasses supply set-up, one pass, verify."""

    def __init__(self, name, opts) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.opts = opts
        self.rec = spans_mod.Recorder()
        self.workdir = Path(opts.rep)
        self.failed = set()        # (pass_id, op index)
        self.failures = []         # human-readable reasons
        self.reference = None      # the warm-up pass

    def fail(self, pass_id, op_index, reason):
        self.failed.add((pass_id, op_index))
        self.failures.append(f"{self.name} {pass_id} op{op_index}: {reason}")

    def execute(self) -> dict:
        opts = self.opts
        setup = self.set_up()
        setup_s = time.time() - opts.t0
        setup["setup.other_s"] = setup_s - sum(
            value for key, value in setup.items() if key.endswith("_s")
        )
        timed = []
        start = time.perf_counter()
        while (len(timed) < opts.passes if opts.budget is None
               else time.perf_counter() - start < opts.budget):
            timed.append(self.run_pass(f"timed{len(timed)}"))
        peak_rss_mb = self.peak_rss_kib() / 1024.0
        traced = noledger = None
        extra = []                 # passes run with spans on
        if opts.traced and self.spec.kind == "cli":
            # a timed subprocess is its own span: no extra pass
            traced = timed[-1]
            self.rec.pass_id = traced["pass_id"]
            for op in traced["ops"]:
                self.rec.op_id = op["label"]
                self.rec.add(f"cli.{op['label']}", *op["interval"])
        elif opts.traced:
            self.rec.enabled = True
            traced = self.run_pass("traced")
            extra.append(traced)
            if self.spec.kind == "run":
                # replay reads the ledger, so record-replay has no
                # ledger-off pass (and no core.audit_s)
                noledger = self.run_pass("traced-noledger", ledger=False)
                extra.append(noledger)
            self.rec.enabled = False
        verify_s = speedup = None
        if opts.verify:
            start = time.perf_counter()
            speedup = self.verify(timed + extra)
            verify_s = time.perf_counter() - start
        layers = None
        if traced:
            layers = dict.fromkeys((m[0] for m in LAYER_METRICS), 0.0)
            layers.update(setup)
            self.layer_metrics(layers, timed, traced, noledger)
            layers["virtual_ms"] = self.reference["virtual_ms"]
            layers["virtual_speedup_x"] = speedup or 0.0
        # a cold-cli rep that only set up has no reference pass
        reference = self.reference or {"steps": None, "virtual_ms": None}
        return {
            "workload": self.name,
            "setup_s": setup_s,
            "pass_walls": [p["wall"] for p in timed],
            "steps": reference["steps"],
            "virtual_ms": reference["virtual_ms"],
            "ops": sum(len(p["ops"]) for p in timed + extra),
            "failed_ops": len(self.failed),
            "failures": self.failures,
            "peak_rss_mb": peak_rss_mb,
            "verify_s": verify_s,
            "virtual_speedup_x": speedup,
            "layers": layers,
            "spans": self.rec.spans if traced else None,
        }

    def peak_rss_kib(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def check_against_reference(self, outcome):
        """Every pass must repeat the warm-up pass bit for bit."""
        for index, (op, ref) in enumerate(
            zip(outcome["ops"], self.reference["ops"])
        ):
            for key in ("virtual_ms", "digest", "steps"):
                if op[key] != ref[key]:
                    self.fail(outcome["pass_id"], index,
                              f"{op['label']} {key} {op[key]!r} != "
                              f"warm-up {ref[key]!r}")

    def fail_cell(self, passes, index, reason):
        """A verification mismatch fails every op of that cell."""
        for outcome in passes:
            self.fail(outcome["pass_id"], index, reason)


def fold_pass(pass_id, ops) -> dict:
    return {
        "pass_id": pass_id,
        "ops": ops,
        "wall": sum(op["wall"] for op in ops),
        "steps": sum(op["steps"] for op in ops),
        "virtual_ms": sum(op["virtual_ms"] for op in ops),
    }


class WarmRep(Rep):
    """In-process workloads: ``repro.run`` over a table of cells."""

    def set_up(self) -> dict:
        start = time.perf_counter()
        import repro
        import layers
        imported = time.perf_counter()
        repro.pretrained_default()
        loaded = time.perf_counter()
        self.layers = layers
        self.graphs, self.sources, setup = layers.build_inputs(
            self.spec.cells
        )
        setup["setup.import_s"] = imported - start
        setup["core.costmodel.load_s"] = loaded - imported
        warm = self.run_pass("warmup")
        setup["setup.warmup_pass_s"] = warm["wall"]
        return setup

    def run_pass(self, pass_id, ledger=True) -> dict:
        layers, rec = self.layers, self.rec
        rec.pass_id = pass_id
        workdir = self.workdir / pass_id
        if self.spec.kind == "record":
            workdir.mkdir(parents=True)
        ops = []
        for index, cell in enumerate(self.spec.cells):
            label = cell_label(cell)
            rec.op_id = label
            graph = self.graphs[(cell.graph, cell.algorithm)]
            params = layers.cell_params(cell, self.sources)
            extras = {}
            start = time.perf_counter()
            root = rec.begin("facade")
            try:
                if self.spec.kind == "record":
                    result, extras = layers.record_replay_op(
                        cell, graph, params, self.opts.seed, rec, workdir
                    )
                else:
                    result = layers.run_cell(
                        cell, graph, params, self.opts.seed, rec,
                        ledger=ledger,
                    )
            except Exception as exc:  # an op that raises is a failed op
                rec.end(root)
                self.fail(pass_id, index, f"{label} raised {exc!r}")
                ops.append({"label": label, "wall": 0.0, "steps": 0,
                            "virtual_ms": 0.0, "digest": None})
                continue
            rec.end(root)
            op = {
                "label": label,
                "wall": time.perf_counter() - start,
                "steps": result.num_iterations,
                "virtual_ms": result.total_ms,
                "digest": layers.digest(result.values),
                "extras": extras,
            }
            if not result.converged:
                self.fail(pass_id, index, f"{label} did not converge")
            if extras and not extras["bit_identical"]:
                self.fail(pass_id, index, f"{label} replay not bit-identical")
            if pass_id == "warmup":
                op["values"] = result.values
            if rec.enabled:
                op["stats"] = _result_stats(result)
            ops.append(op)
        if self.spec.kind == "record":
            shutil.rmtree(workdir)
        outcome = fold_pass(pass_id, ops)
        if pass_id == "warmup":
            self.reference = outcome
        else:
            self.check_against_reference(outcome)
        return outcome

    def verify(self, passes):
        """Oracles, the Gunrock baseline, and (record-replay) the
        silent run whose virtual time the instrumented one must match.
        Returns ``virtual_speedup_x``."""
        layers, rec = self.layers, self.rec
        gum_ms = baseline_ms = 0.0
        self.silent_walls = {}
        for index, cell in enumerate(self.spec.cells):
            ref = self.reference["ops"][index]
            if ref["digest"] is None:
                continue
            graph = self.graphs[(cell.graph, cell.algorithm)]
            params = layers.cell_params(cell, self.sources)
            why = layers.oracle_mismatch(cell, graph, params, ref["values"])
            if why:
                self.fail_cell(passes, index, f"{ref['label']}: {why}")
            if cell.engine != "gum":
                continue
            gum_ms += ref["virtual_ms"]
            baseline = layers.run_cell(
                cell._replace(engine="gunrock"), graph, params,
                self.opts.seed, rec,
            )
            baseline_ms += baseline.total_ms
            if self.spec.kind == "record":
                start = time.perf_counter()
                silent = layers.run_cell(cell, graph, params,
                                         self.opts.seed, rec)
                self.silent_walls[index] = time.perf_counter() - start
                if silent.total_ms != ref["virtual_ms"]:
                    self.fail_cell(
                        passes, index,
                        f"{ref['label']}: instrumented virtual ms "
                        f"{ref['virtual_ms']!r} != silent "
                        f"{silent.total_ms!r}",
                    )
        return _ratio(baseline_ms, gum_ms)

    def layer_metrics(self, out, timed, traced, noledger):
        totals = spans_mod.layer_totals(self.rec.spans, "traced")
        without = spans_mod.layer_totals(self.rec.spans, "traced-noledger")

        def dur(name, table=totals):
            return table.get(name, {}).get("dur", 0.0)

        def calls(name):
            return totals.get(name, {}).get("calls", 0)

        for span_name in ("core.plan", "core.observe", "core.begin_run",
                          "core.finish_run", "algorithms.init",
                          "algorithms.step", "runtime.run",
                          "partition.make", "hardware.topology",
                          "engine.build", "baselines.gunrock_run",
                          "baselines.groute_run", "obs.close",
                          "obs.ledger_load", "obs.explain", "runs.record",
                          "runs.load", "replay.replay"):
            out[f"{span_name}_s"] = dur(span_name)
        out["core.plan_calls"] = calls("core.plan")
        out["core.plan_us_per_call"] = 1e6 * _ratio(
            out["core.plan_s"], out["core.plan_calls"]
        )
        if noledger:
            out["core.audit_s"] = out["core.plan_s"] - dur("core.plan",
                                                           without)
        out["algorithms.steps"] = calls("algorithms.step")
        out["runtime.self_s"] = totals.get("runtime.run", {}).get("self", 0.0)
        out["facade.overhead_s"] = (
            totals["facade"]["self"] + out["hardware.topology_s"]
            + out["partition.make_s"] + out["engine.build_s"]
        )
        stats = [op["stats"] for op in traced["ops"] if "stats" in op]
        for key in ("cache_hits", "cache_misses", "warm_accepts",
                    "osteal_z_evaluated", "fsteal_iters", "stolen_edges",
                    "ledger_entries", "ledger_samples"):
            out[f"core.{key}"] = sum(s[key] for s in stats)
        out["core.cache_hit_ratio"] = _ratio(
            out["core.cache_hits"],
            out["core.cache_hits"] + out["core.cache_misses"],
        )
        out["algorithms.frontier_edges"] = sum(
            s["frontier_edges"] for s in stats
        )
        out["algorithms.edges_per_s"] = _ratio(
            out["algorithms.frontier_edges"], out["algorithms.step_s"]
        )
        out["runtime.supersteps"] = sum(
            op["steps"] for op, cell in zip(traced["ops"], self.spec.cells)
            if cell.engine == "gum"
        )
        out["runtime.self_us_per_step"] = 1e6 * _ratio(
            out["runtime.self_s"], out["runtime.supersteps"]
        )
        untraced = statistics.median(
            [p["wall"] for p in timed] or [self.reference["wall"]]
        )
        out["trace.overhead_pct"] = 100.0 * (traced["wall"] / untraced - 1.0)
        if self.spec.kind != "record":
            return
        extras = [op["extras"] for op in traced["ops"] if op.get("extras")]
        out["obs.emit_s"] = sum(e["obs_seconds"] for e in extras)
        out["obs.trace_bytes"] = sum(e["trace_bytes"] for e in extras)
        out["runs.bytes_written"] = sum(e["run_bytes"] for e in extras)
        out["replay.bit_identical"] = _ratio(
            sum(e["bit_identical"] for e in extras), len(extras)
        )
        # instrumented minus silent run of the same cell, spans off
        reference_passes = timed or [self.reference]
        out["obs.instrumented_overhead_s"] = sum(
            statistics.median(
                p["ops"][index]["extras"]["run_wall"]
                for p in reference_passes if p["ops"][index].get("extras")
            ) - silent
            for index, silent in getattr(self, "silent_walls", {}).items()
        )


def _result_stats(result) -> dict:
    """Deterministic counts off a ``RunResult`` (traced passes only)."""
    decisions = result.decision_stats or {}
    ledger = result.ledger.summary() if result.ledger is not None else {}
    return {
        "cache_hits": int(decisions.get("hits", 0)),
        "cache_misses": int(decisions.get("misses", 0)),
        "warm_accepts": int(decisions.get("warm_accepts", 0)),
        "osteal_z_evaluated": int(decisions.get("osteal_z_evaluated", 0)),
        "fsteal_iters": sum(1 for r in result.iterations
                            if r.fsteal_applied),
        "stolen_edges": int(sum(r.stolen_edges for r in result.iterations)),
        "ledger_entries": int(ledger.get("entries", 0)),
        "ledger_samples": int(ledger.get("samples", 0)),
        "frontier_edges": int(sum(r.frontier_edges
                                  for r in result.iterations)),
    }


class ColdCliRep(Rep):
    """Seven fresh CLI processes per pass, timed from outside."""

    def commands(self):
        cell = self.spec.cells[0]
        python = [sys.executable]
        workload = ["--graph", cell.graph, "--algorithm", cell.algorithm,
                    "--gpus", str(cell.gpus), "--json"]
        trace = str(self.workdir / "trace.json")
        return {
            "import": python + ["-c", "import repro"],
            "help": python + ["-m", "repro", "--help"],
            "run_gum": python + ["-m", "repro", "run"] + workload,
            "run_bsp": python + ["-m", "repro", "run"] + workload
            + ["--engine", "bsp"],
            "profile_record": python + ["-m", "repro", "profile"]
            + workload + ["--out", trace, "--record"],
            "explain": python + ["-m", "repro", "explain", "latest"],
            "replay_check": python + ["-m", "repro", "replay", "latest",
                                      "--check"],
        }

    def spawn(self, label):
        """Run one command; returns its op record (wall, checks)."""
        start = time.perf_counter()
        proc = subprocess.run(
            self.commands()[label], cwd=self.workdir, text=True,
            capture_output=True, timeout=150,
        )
        end = time.perf_counter()
        op = {"label": label, "wall": end - start, "interval": (start, end),
              "steps": 0, "virtual_ms": 0.0, "digest": label, "why": ""}
        if proc.returncode != 0:
            op["why"] = (f"exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-200:]}")
        elif label in ("run_gum", "run_bsp", "profile_record"):
            try:
                summary = json.loads(proc.stdout)
                op["steps"] = int(summary["iterations"])
                op["virtual_ms"] = float(summary["total_ms"])
                if not summary["converged"]:
                    op["why"] = "did not converge"
                if label == "profile_record":
                    with open(summary["trace"]) as handle:
                        if not json.load(handle)["traceEvents"]:
                            op["why"] = "empty chrome trace"
                    if not summary.get("run_id"):
                        op["why"] = "profile --record gave no run id"
            except (ValueError, KeyError, OSError) as exc:
                op["why"] = f"unusable --json output: {exc!r}"
        elif label == "help" and "usage" not in proc.stdout:
            op["why"] = "no usage text"
        elif label == "explain" and "decision ledger" not in proc.stdout:
            op["why"] = "no decision ledger in the explain report"
        elif label == "replay_check" and "bit-identical" not in proc.stdout:
            op["why"] = "replay did not report bit-identical"
        return op

    def set_up(self) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        os.environ["REPRO_RUNS_DIR"] = str(self.workdir / "runs")
        warm = self.spawn("run_gum")
        if warm["why"]:
            self.fail("warmup", 0, warm["why"])
        self.gum_ms, self.gum_steps = warm["virtual_ms"], warm["steps"]
        return {"setup.warmup_pass_s": warm["wall"]}

    def run_pass(self, pass_id) -> dict:
        ops = [self.spawn(label) for label in CLI_COMMANDS]
        outcome = fold_pass(pass_id, ops)
        if self.reference is None:
            self.reference = outcome
        for index, op in enumerate(ops):
            if op["why"]:
                self.fail(pass_id, index, f"{op['label']}: {op['why']}")
            if op["label"] in ("run_gum", "profile_record") and (
                op["virtual_ms"], op["steps"]
            ) != (self.gum_ms, self.gum_steps):
                self.fail(pass_id, index,
                          f"{op['label']} virtual ms {op['virtual_ms']!r} "
                          f"!= warm-up {self.gum_ms!r}")
        self.check_against_reference(outcome)
        return outcome

    def peak_rss_kib(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def verify(self, passes):
        """The CLI prints no values, so check the cell in-process: the
        ``bsp`` run (no cost model to train) must match the oracle, and
        the CLI's ``--engine bsp`` virtual time and superstep count."""
        import layers
        import repro

        cell = self.spec.cells[0]._replace(engine="bsp")
        graphs, sources, __ = layers.build_inputs([cell])
        graph = graphs[(cell.graph, cell.algorithm)]
        params = layers.cell_params(cell, sources)
        result = repro.run(graph, cell.algorithm, engine="bsp",
                           num_gpus=cell.gpus, **params)
        cli_bsp = self.reference["ops"][CLI_COMMANDS.index("run_bsp")]
        why = layers.oracle_mismatch(cell, graph, params, result.values)
        if not why and (result.total_ms, result.num_iterations) != (
            cli_bsp["virtual_ms"], cli_bsp["steps"]
        ):
            why = (f"in-process bsp virtual ms {result.total_ms!r} != "
                   f"CLI {cli_bsp['virtual_ms']!r}")
        if not why and result.num_iterations != self.gum_steps:
            why = "gum and bsp superstep counts differ"
        if why:
            for index in range(len(CLI_COMMANDS)):
                self.fail_cell(passes, index, why)
        return _ratio(cli_bsp["virtual_ms"], self.gum_ms)

    def layer_metrics(self, out, timed, traced, noledger):
        for index, label in enumerate(CLI_COMMANDS):
            out[f"cli.{label}_s"] = statistics.median(
                p["ops"][index]["wall"] for p in timed
            )
        out["cli.parser_s"] = out["cli.help_s"] - out["cli.import_s"]
        out["cli.model_load_s"] = out["cli.run_gum_s"] - out["cli.run_bsp_s"]


def run_rep(name, opts) -> dict:
    """Execute one rep of ``name`` in this interpreter."""
    kind = ColdCliRep if WORKLOADS[name].kind == "cli" else WarmRep
    return kind(name, opts).execute()
