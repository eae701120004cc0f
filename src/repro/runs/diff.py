"""Cross-run regression diffs over recorded manifests.

``diff_manifests`` compares two run manifests metric by metric and
flags regressions using the same dual noise guard as the benchmark
gate (:mod:`repro.bench.perfharness`): a metric regresses only when it
moves by more than a *relative* threshold AND by more than an
*absolute* floor. The relative bar rejects "1.5x slower" noise framing
on microsecond-scale metrics; the absolute floor rejects the opposite
failure, where a 0.001 ms metric doubling trips a percentage gate.

Two manifests are only diffed when their **workload** fingerprints
match (engine, algorithm, graph, GPUs, partitioner, solver, cost
model, seeds) — otherwise the numbers were never comparable and the
diff raises :class:`~repro.errors.RunRegistryError` instead of
printing misleading deltas (``force=True`` overrides, for exploratory
cross-workload comparisons). Provenance differences (git SHA, package
versions) are *reported* but never block: comparing across commits is
what a regression diff is for.

Host-clock metrics (``real_decision_ms``) and behavioural counters
(stolen edges, group sizes) are shown as informational deltas only —
they vary across machines or describe policy, not performance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench import perfharness
from repro.errors import RunRegistryError

__all__ = [
    "MetricDelta",
    "MetricSpec",
    "RunDiff",
    "RUN_METRICS",
    "diff_manifests",
    "format_diff",
]

#: Relative threshold shared with the benchmark gate.
DEFAULT_THRESHOLD = perfharness.DEFAULT_THRESHOLD


@dataclass(frozen=True)
class MetricSpec:
    """How one summary metric participates in a diff.

    ``key`` is a dotted path into ``manifest["summary"]``. ``floor``
    is the absolute-delta noise floor in the metric's own unit; a
    change below it never regresses no matter the ratio. Metrics with
    ``gated=False`` are displayed but cannot fail the diff.
    """

    key: str
    floor: float = 0.0
    gated: bool = True
    note: str = ""


#: Metrics compared for ``kind == "run"`` manifests. All virtual-clock
#: metrics are deterministic given the workload fingerprint, so the
#: thresholds here guard against *model* changes, not machine noise.
RUN_METRICS = (
    MetricSpec("total_ms", floor=1e-3),
    MetricSpec("iterations", floor=0.5),
    MetricSpec("stall_fraction", floor=0.02),
    MetricSpec("breakdown_ms.compute", floor=1e-3),
    MetricSpec("breakdown_ms.communication", floor=1e-3),
    MetricSpec("breakdown_ms.serialization", floor=1e-3),
    MetricSpec("breakdown_ms.sync", floor=1e-3),
    MetricSpec("breakdown_ms.overhead", floor=1e-3),
    MetricSpec("stolen_edges", gated=False, note="policy behaviour"),
    MetricSpec("fsteal_iterations", gated=False, note="policy behaviour"),
    MetricSpec("mean_group_size", gated=False, note="policy behaviour"),
    MetricSpec("min_group_size", gated=False, note="policy behaviour"),
    MetricSpec("real_decision_ms", gated=False,
               note="host clock; machine-dependent"),
    MetricSpec("decision_cache.hits", gated=False,
               note="amortization behaviour"),
    MetricSpec("decision_cache.misses", gated=False,
               note="amortization behaviour"),
    MetricSpec("decision_cache.invalidations", gated=False,
               note="amortization behaviour"),
    MetricSpec("decision_cache.warm_accepts", gated=False,
               note="amortization behaviour"),
    # fault-injection counters: absent on healthy runs (_lookup -> None)
    MetricSpec("chaos.faults_injected", gated=False,
               note="fault injection"),
    MetricSpec("chaos.evictions", gated=False, note="fault injection"),
    MetricSpec("chaos.solver_fallbacks", gated=False,
               note="fault injection"),
    MetricSpec("chaos.transfer_retries", gated=False,
               note="fault injection"),
    MetricSpec("obs_overhead_pct", gated=False,
               note="host clock; machine-dependent"),
    # decision-ledger analytics: absent on pre-ledger manifests and on
    # stateless policies (_lookup -> None); informational — the model's
    # accuracy is audited, not gated, here
    MetricSpec("ledger.entries", gated=False, note="decision ledger"),
    MetricSpec("ledger.samples", gated=False, note="decision ledger"),
    MetricSpec("ledger.skipped_samples", gated=False,
               note="decision ledger"),
    MetricSpec("ledger.final_rmsre", gated=False, note="decision ledger"),
    MetricSpec("ledger.max_model_drift", gated=False,
               note="decision ledger"),
    MetricSpec("ledger.decision_error_p99", gated=False,
               note="decision ledger"),
    MetricSpec("ledger.live", gated=False, note="decision ledger"),
    MetricSpec("ledger.warm", gated=False, note="decision ledger"),
    MetricSpec("ledger.cached", gated=False, note="decision ledger"),
)


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across two runs."""

    name: str
    base: Optional[float]
    current: Optional[float]
    gated: bool
    regressed: bool
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        """``current / base`` where defined, else ``None``."""
        if self.base is None or self.current is None:
            return None
        if abs(self.base) < 1e-12:
            return None
        return self.current / self.base

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view."""
        return {
            "name": self.name,
            "base": self.base,
            "current": self.current,
            "ratio": self.ratio,
            "gated": self.gated,
            "regressed": self.regressed,
            "note": self.note,
        }


@dataclass
class RunDiff:
    """Outcome of diffing two manifests."""

    base_id: str
    current_id: str
    kind: str
    deltas: List[MetricDelta] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        """Deltas that tripped the gate."""
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        """True when no gated metric regressed."""
        return not self.regressions

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view."""
        return {
            "base": self.base_id,
            "current": self.current_id,
            "kind": self.kind,
            "ok": self.ok,
            "deltas": [d.as_dict() for d in self.deltas],
            "notes": list(self.notes),
        }


def _lookup(summary: Dict, dotted: str) -> Optional[float]:
    node = summary
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def _check_commensurable(base: Dict, current: Dict, force: bool) -> List[str]:
    """Notes about fingerprint differences; raises when they gate."""
    notes = []
    base_work = base.get("fingerprint", {}).get("workload", {})
    cur_work = current.get("fingerprint", {}).get("workload", {})
    mismatched = sorted(
        key for key in set(base_work) | set(cur_work)
        if base_work.get(key) != cur_work.get(key)
    )
    if mismatched:
        detail = ", ".join(
            f"{key}: {base_work.get(key)!r} vs {cur_work.get(key)!r}"
            for key in mismatched
        )
        if not force:
            raise RunRegistryError(
                "refusing to diff incommensurable runs — workload "
                f"fingerprints differ on {detail}. These numbers were "
                "never comparable; pass --force to diff anyway."
            )
        notes.append(f"workload mismatch (forced diff): {detail}")
    base_prov = base.get("fingerprint", {}).get("provenance", {})
    cur_prov = current.get("fingerprint", {}).get("provenance", {})
    for key in sorted(set(base_prov) | set(cur_prov)):
        if base_prov.get(key) != cur_prov.get(key):
            notes.append(
                f"provenance: {key} {base_prov.get(key)} -> "
                f"{cur_prov.get(key)}"
            )
    return notes


def _diff_run_kind(
    base: Dict,
    current: Dict,
    threshold: float,
) -> List[MetricDelta]:
    deltas = []
    for spec in RUN_METRICS:
        before = _lookup(base.get("summary", {}), spec.key)
        after = _lookup(current.get("summary", {}), spec.key)
        regressed = False
        if spec.gated and before is not None and after is not None:
            # Dual guard, mirroring perfharness.compare_reports: the
            # relative ratio must exceed the bar AND the raw delta
            # must clear the absolute noise floor.
            ratio = after / max(before, 1e-12)
            regressed = (
                ratio > 1.0 + threshold
                and (after - before) > spec.floor
            )
        deltas.append(MetricDelta(
            name=spec.key,
            base=before,
            current=after,
            gated=spec.gated,
            regressed=regressed,
            note=spec.note,
        ))
    return deltas


def _diff_bench_kind(
    base: Dict,
    current: Dict,
    threshold: float,
) -> List[MetricDelta]:
    base_report = base.get("report")
    cur_report = current.get("report")
    if not base_report or not cur_report:
        raise RunRegistryError(
            "bench manifest without an embedded report cannot be diffed"
        )
    regressed = {
        reg.name for reg in perfharness.compare_reports(
            cur_report, base_report, threshold=threshold
        )
    }
    deltas = []
    base_cases = base_report.get("benchmarks", {})
    for name, entry in sorted(cur_report.get("benchmarks", {}).items()):
        if name not in base_cases:
            continue
        before = _bench_metrics(base_cases[name])
        for key, (after, note) in _bench_metrics(entry).items():
            if key in before:
                deltas.append(MetricDelta(
                    name=f"bench.{name}.{key}",
                    base=before[key][0],
                    current=after,
                    gated=True,
                    regressed=name in regressed,
                    note=note,
                ))
    return deltas


def _bench_metrics(entry: Dict) -> Dict[str, tuple]:
    """``{key: (value, note)}`` one bench report entry contributes.

    A timed case diffs its score; a measured one how many of its
    invariants it violated.
    """
    if "score" in entry:
        return {"score": (float(entry["score"]),
                          "machine-normalized score")}
    return {"violations": (float(len(entry.get("violations", ()))),
                           "invariant violations")}


def diff_manifests(
    base: Dict,
    current: Dict,
    threshold: float = DEFAULT_THRESHOLD,
    force: bool = False,
) -> RunDiff:
    """Compare two manifests; flag regressions of ``current`` vs ``base``.

    Raises :class:`RunRegistryError` when the runs are incommensurable
    (different workload fingerprint or different manifest kinds) unless
    ``force`` is set.
    """
    base_kind = base.get("kind", "run")
    cur_kind = current.get("kind", "run")
    if base_kind != cur_kind:
        raise RunRegistryError(
            f"cannot diff a {base_kind!r} manifest against a "
            f"{cur_kind!r} manifest"
        )
    notes = _check_commensurable(base, current, force)
    if base_kind == "bench":
        deltas = _diff_bench_kind(base, current, threshold)
    else:
        deltas = _diff_run_kind(base, current, threshold)
    return RunDiff(
        base_id=str(base.get("id", "<base>")),
        current_id=str(current.get("id", "<current>")),
        kind=base_kind,
        deltas=deltas,
        notes=notes,
    )


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4f}"


def format_diff(diff: RunDiff, verbose: bool = True) -> str:
    """Human-readable diff table.

    With ``verbose=False`` only regressions and notes are shown — an
    identical pair of runs prints nothing but the OK line.
    """
    lines = [f"diff {diff.base_id} -> {diff.current_id} ({diff.kind})"]
    shown = diff.deltas if verbose else diff.regressions
    if shown:
        lines.append(
            f"  {'metric':30s} {'base':>12s} {'current':>12s} "
            f"{'ratio':>8s}  flag"
        )
    for delta in shown:
        ratio = delta.ratio
        ratio_text = f"{ratio:8.3f}" if ratio is not None else f"{'-':>8s}"
        flag = "REGRESSED" if delta.regressed else (
            "" if delta.gated else "info"
        )
        lines.append(
            f"  {delta.name:30s} {_fmt(delta.base):>12s} "
            f"{_fmt(delta.current):>12s} {ratio_text}  {flag}".rstrip()
        )
    for note in diff.notes:
        lines.append(f"  note: {note}")
    lines.append(
        "OK: no gated regressions" if diff.ok else
        f"FAIL: {len(diff.regressions)} metric(s) regressed beyond "
        f"threshold"
    )
    return "\n".join(lines)
