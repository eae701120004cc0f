"""Persistent run registry: archive runs, find them again, prune them.

PR 1 made a run observable while the process lives; this module makes
it durable. A recorded run becomes a directory under ``.repro/runs``::

    .repro/runs/<id>/
        manifest.json     # fingerprint, environment, summary, metrics
        trace.jsonl       # per-iteration records (save_trace format)
        ledger.json       # per-decision explainability ledger, when the
                          # policy recorded one (repro.obs.ledger)

The manifest's **fingerprint** has two halves with different jobs:

* ``workload`` — engine, algorithm, graph, GPUs, partitioner, solver,
  cost model, and seeds. Two runs are *commensurable* (diffable) only
  when these match exactly; the virtual clock is deterministic given
  them.
* ``provenance`` — git SHA, package versions, platform. Recorded so a
  regression can be traced to a commit, but never a diff precondition:
  comparing across commits is the entire point of ``runs diff``.

Everything in a manifest is plain JSON written with sorted keys, so
identical runs produce identical bytes and diffs are deterministic.
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro import __version__, config
from repro.documents import load_document
from repro.errors import RunRegistryError
from repro.obs.ledger import LEDGER_SCHEMA
from repro.obs.metrics import quantile

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import RunResult

# Reading a recorded run (``explain``, ``runs list``) loads neither
# NumPy nor the trace module: the functions that record or
# parse a run import them.

__all__ = [
    "RUN_SCHEMA",
    "DEFAULT_RUNS_ROOT",
    "RunRegistry",
    "result_summary",
    "workload_fingerprint",
    "provenance_fingerprint",
    "environment_info",
]

RUN_SCHEMA = "repro-run/1"
DEFAULT_RUNS_ROOT = ".repro/runs"

MANIFEST_NAME = "manifest.json"
TRACE_NAME = "trace.jsonl"
LEDGER_NAME = "ledger.json"

#: Workload keys that must match for two runs to be comparable.
WORKLOAD_KEYS = (
    "engine",
    "algorithm",
    "graph",
    "num_gpus",
    "partitioner",
    "solver",
    "cost_model",
    "seed",
    "partition_seed",
    "amortize",
)


def _git_sha() -> str:
    """Current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def workload_fingerprint(
    engine: str,
    algorithm: str,
    graph: str,
    num_gpus: int,
    partitioner: str = "random",
    solver: str = "greedy",
    cost_model: str = "default",
    seed: int = config.DEFAULT_SEED,
    partition_seed: int = 0,
    amortize: bool = True,
    chaos: str = "none",
    topology: str = "default",
    fsteal: bool = True,
    osteal: bool = True,
    hub_cache: bool = True,
) -> Dict[str, object]:
    """The identity half of a run fingerprint (diff precondition).

    ``chaos`` is the injected fault scenario's name (``"none"`` on
    healthy runs): a chaos run and a healthy run of the same workload
    are *not* commensurable. The key is omitted on healthy runs so
    their fingerprints stay comparable with manifests recorded before
    fault injection existed. ``topology`` works the same way: a
    cluster selector (``nodes=2x4``) changes virtual time, so it joins
    the fingerprint, but the default single-node shape omits the key
    to stay comparable with manifests recorded before multi-node
    support existed. The stealing toggles ``fsteal``, ``osteal`` and
    ``hub_cache`` follow the same rule: each is recorded only when it
    is off, so ``run --no-fsteal`` is a workload of its own.
    """
    fingerprint: Dict[str, object] = {
        "engine": str(engine),
        "algorithm": str(algorithm),
        "graph": str(graph),
        "num_gpus": int(num_gpus),
        "partitioner": str(partitioner),
        "solver": str(solver),
        "cost_model": str(cost_model),
        "seed": int(seed),
        "partition_seed": int(partition_seed),
        "amortize": bool(amortize),
    }
    if str(chaos) != "none":
        fingerprint["chaos"] = str(chaos)
    if str(topology) != "default":
        fingerprint["topology"] = str(topology)
    for name, enabled in (("fsteal", fsteal), ("osteal", osteal),
                          ("hub_cache", hub_cache)):
        if not enabled:
            fingerprint[name] = False
    return fingerprint


def provenance_fingerprint() -> Dict[str, str]:
    """The provenance half: where these numbers came from (read once
    per process: the ``git`` call and the package metadata lookup)."""
    return dict(_provenance())


@functools.lru_cache(maxsize=1)
def _provenance() -> Dict[str, str]:
    import importlib.metadata  # ~15 ms (email, socket): only read here
    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:  # pragma: no cover
        scipy_version = "absent"
    return {
        "git_sha": _git_sha(),
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def environment_info() -> Dict[str, str]:
    """Host description stored alongside a run (informational only)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
    }


def result_summary(result: RunResult) -> dict:
    """JSON-friendly summary of a run: a manifest's ``summary`` block,
    and what the CLI prints under ``--json``."""
    import numpy as np

    from repro.runtime.trace import utilization_report

    group_sizes = result.group_size_series()
    wall_ms = [rec.wall_seconds * 1e3 for rec in result.iterations]
    summary = {
        "engine": result.engine,
        "algorithm": result.algorithm,
        "graph": result.graph_name,
        "num_gpus": result.num_gpus,
        "total_ms": result.total_ms,
        "iterations": result.num_iterations,
        "converged": result.converged,
        "stall_fraction": result.stall_fraction(),
        "breakdown_ms": result.breakdown.scaled_ms(),
        "stolen_edges": int(
            sum(r.stolen_edges for r in result.iterations)
        ),
        "min_group_size": (
            min(group_sizes) if result.iterations else result.num_gpus
        ),
        "real_decision_ms": result.real_decision_seconds * 1e3,
        "fsteal_iterations": int(
            sum(1 for r in result.iterations if r.fsteal_applied)
        ),
        "mean_group_size": (
            float(np.mean(group_sizes))
            if result.iterations else float(result.num_gpus)
        ),
        "per_gpu_utilization": utilization_report(
            result
        )["per_gpu_utilization"],
        "decision_cache": dict(result.decision_stats),
        # virtual per-iteration latency distribution (deterministic)
        "iteration_ms": {
            "p50": quantile(wall_ms, 0.50),
            "p90": quantile(wall_ms, 0.90),
            "p99": quantile(wall_ms, 0.99),
            "max": max(wall_ms) if wall_ms else None,
        },
        # host clock: what fraction of run() wall time was spent inside
        # span/metric emission; every engine's run envelope measures it
        # (None only for a result that never went through run())
        "obs_overhead_pct": result.obs_overhead_pct(),
    } | ({"chaos": dict(result.chaos)} if result.chaos else {}) \
        | ({"backend": dict(result.backend_stats)}
           if result.backend_stats else {})
    ledger = getattr(result, "ledger", None)
    if ledger is not None:
        # prediction-audit rollup (entry/sample counts, final RMSRE,
        # drift, cache mix)
        summary["ledger"] = ledger.summary()
    return summary


def _json_stable(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class RunRegistry:
    """Directory-backed store of recorded runs.

    Parameters
    ----------
    root:
        Registry directory; defaults to ``.repro/runs`` under the
        current working directory. Created lazily on first record.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root = Path(root or DEFAULT_RUNS_ROOT)

    @property
    def root(self) -> Path:
        """The registry directory."""
        return self._root

    # -- recording ------------------------------------------------------
    def record_result(
        self,
        result: RunResult,
        workload: Dict[str, object],
        metrics: Optional[Dict] = None,
        notes: str = "",
        summary: Optional[Dict] = None,
    ) -> str:
        """Archive one finished run; returns its registry id.

        ``workload`` should come from :func:`workload_fingerprint`;
        ``metrics`` is a :meth:`MetricsRegistry.snapshot` (optional);
        ``summary`` is the run's :func:`result_summary` when the caller
        has already folded it (computed here otherwise).
        """
        from repro.runtime.trace import save_trace

        files = [MANIFEST_NAME, TRACE_NAME]
        ledger = getattr(result, "ledger", None)
        if ledger is not None:
            files.append(LEDGER_NAME)
        manifest = {
            "schema": RUN_SCHEMA,
            "kind": "run",
            "created_unix": time.time(),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "fingerprint": {
                "workload": dict(workload),
                "provenance": provenance_fingerprint(),
            },
            "environment": environment_info(),
            "summary": (result_summary(result) if summary is None
                        else summary),
            "metrics": dict(metrics or {}),
            "files": files,
        }
        if notes:
            manifest["notes"] = notes
        run_dir = self._new_run_dir(manifest)
        manifest["id"] = run_dir.name
        (run_dir / MANIFEST_NAME).write_text(_json_stable(manifest))
        save_trace(result, run_dir / TRACE_NAME)
        if ledger is not None:
            (run_dir / LEDGER_NAME).write_text(
                _json_stable(ledger.as_dict())
            )
        return run_dir.name

    def record_bench(self, report: Dict, notes: str = "") -> str:
        """Archive a ``repro bench`` report as a bench-kind manifest.

        ``runs diff`` on two bench manifests delegates to the
        perfharness comparison (same noise guards as the CI gate).
        """
        manifest = {
            "schema": RUN_SCHEMA,
            "kind": "bench",
            "created_unix": time.time(),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "fingerprint": {
                "workload": {"bench_schema": report.get("schema")},
                "provenance": provenance_fingerprint(),
            },
            "environment": environment_info(),
            "report": dict(report),
            "files": [MANIFEST_NAME],
        }
        if notes:
            manifest["notes"] = notes
        run_dir = self._new_run_dir(manifest, slug="bench")
        manifest["id"] = run_dir.name
        (run_dir / MANIFEST_NAME).write_text(_json_stable(manifest))
        return run_dir.name

    def _new_run_dir(self, manifest: Dict, slug: str = "") -> Path:
        if not slug:
            workload = manifest["fingerprint"]["workload"]
            slug = "-".join(str(workload[key]) for key in
                            ("engine", "algorithm", "graph"))
            slug += f"-{workload['num_gpus']}gpu"
        stamp = time.strftime("%Y%m%d-%H%M%S")
        digest = hashlib.sha1(
            _json_stable(manifest).encode()
        ).hexdigest()[:6]
        self._root.mkdir(parents=True, exist_ok=True)
        candidate = self._root / f"{stamp}-{slug}-{digest}"
        counter = 0
        while candidate.exists():
            counter += 1
            candidate = self._root / f"{stamp}-{slug}-{digest}.{counter}"
        candidate.mkdir()
        return candidate

    # -- lookup ---------------------------------------------------------
    def ids(self) -> List[str]:
        """Recorded run ids, oldest first."""
        return [m["id"] for m in self.manifests()]

    def manifests(self) -> List[Dict]:
        """All manifests, sorted oldest first (broken ones skipped)."""
        if not self._root.is_dir():
            return []
        loaded = []
        for path in sorted(self._root.iterdir()):
            manifest_path = path / MANIFEST_NAME
            if not manifest_path.is_file():
                continue
            try:
                loaded.append(load_document(
                    manifest_path, RUN_SCHEMA, RunRegistryError,
                    "manifest",
                ))
            except RunRegistryError:
                continue
        loaded.sort(key=lambda m: (m.get("created_unix", 0.0),
                                   m.get("id", "")))
        return loaded

    def resolve(self, ref: str) -> Path:
        """Run directory for a reference.

        Accepts a run id or unique prefix, ``latest``/``last``, or a
        filesystem path (a run directory or its ``manifest.json``) —
        the latter lets committed reference manifests live outside the
        registry, e.g. under ``benchmarks/reference/``.
        """
        path = Path(ref)
        if path.is_file() and path.name == MANIFEST_NAME:
            return path.parent
        if path.is_dir() and (path / MANIFEST_NAME).is_file():
            return path
        # an exact id names its directory: no manifest is parsed here
        # (a broken one fails when it is loaded, as a RunRegistryError)
        if (ref not in ("latest", "last", "..") and path.name == ref
                and (self._root / ref / MANIFEST_NAME).is_file()):
            return self._root / ref
        manifests = self.manifests()
        if ref in ("latest", "last"):
            if not manifests:
                raise RunRegistryError(
                    f"no runs recorded under {self._root}"
                )
            return self._root / manifests[-1]["id"]
        matches = [m["id"] for m in manifests
                   if m["id"] == ref or m["id"].startswith(ref)
                   or ref in m["id"]]
        exact = [m for m in matches if m == ref]
        if exact:
            return self._root / exact[0]
        if len(matches) == 1:
            return self._root / matches[0]
        if len(matches) > 1:
            raise RunRegistryError(
                f"ambiguous run reference {ref!r}: matches "
                f"{', '.join(matches)}"
            )
        raise RunRegistryError(
            f"unknown run reference {ref!r} (registry: {self._root}, "
            f"{len(manifests)} runs recorded)"
        )

    def load_manifest(self, ref: str) -> Dict:
        """Manifest of one run (see :meth:`resolve` for references)."""
        return load_document(
            self.resolve(ref) / MANIFEST_NAME, RUN_SCHEMA,
            RunRegistryError, "manifest",
        )

    def load_run_trace(self, ref: str) -> Tuple[Dict, List[Dict]]:
        """``(header, iteration_records)`` of a recorded run's trace."""
        from repro.runtime.trace import load_trace

        run_dir = self.resolve(ref)
        trace_path = run_dir / TRACE_NAME
        if not trace_path.is_file():
            raise RunRegistryError(
                f"{run_dir.name}: no archived trace "
                f"({TRACE_NAME} missing)"
            )
        return load_trace(trace_path)

    def load_ledger(self, ref: str) -> Dict:
        """Archived decision-ledger payload of a recorded run.

        Returns the raw ``repro-ledger/1`` dict (feed it to
        :meth:`repro.obs.ledger.Ledger.from_dict` to replay it).
        Raises :class:`RunRegistryError` when the run recorded no
        ledger (stateless policy, or recording disabled) or the file
        is corrupt.
        """
        run_dir = self.resolve(ref)
        path = run_dir / LEDGER_NAME
        if not path.is_file():
            raise RunRegistryError(
                f"{run_dir.name}: no archived decision ledger "
                f"({LEDGER_NAME} missing — stateless policy or "
                f"recording disabled)"
            )
        return load_document(
            path, LEDGER_SCHEMA, RunRegistryError, "ledger"
        )

    # -- maintenance ----------------------------------------------------
    def gc(self, keep: int = 20, dry_run: bool = False) -> List[str]:
        """Delete all but the ``keep`` newest runs; returns removed ids."""
        if keep < 0:
            raise RunRegistryError(f"gc keep must be >= 0, got {keep}")
        manifests = self.manifests()
        doomed = manifests[:max(len(manifests) - keep, 0)]
        removed = []
        for manifest in doomed:
            run_dir = self._root / manifest["id"]
            if not dry_run:
                shutil.rmtree(run_dir)
            removed.append(manifest["id"])
        return removed
