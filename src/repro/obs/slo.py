"""Declarative service-level objectives over runs and run history.

The serving-layer north star needs budgets, not just measurements: a
run is *good* when its p99 iteration latency, GPU utilization, stall
fraction, chaos recovery, and observability overhead all sit inside
agreed bounds — and a fleet is healthy when today's run is not a
statistical outlier against its own history. This module makes those
budgets first-class files.

Rule files (``repro-slo/1``, YAML or JSON)::

    schema: repro-slo/1
    rules:
      - metric: p99_iteration_ms      # bound rule
        max: 1.0
      - metric: min_gpu_utilization
        min: 0.9
      - series: wall_ms               # within-run anomaly rule
        zscore_max: 8.0
        warmup: 10
      - metric: total_ms              # cross-run anomaly rule
        zscore_max: 3.0
        history: 20
        required: false               # SKIP (not FAIL) when unavailable

Three rule shapes:

* **bound** — ``metric`` + ``max`` and/or ``min``. The metric resolves
  first against the named SLO indicators (:func:`slo_indicators`),
  then as a dotted path into the run summary (``breakdown_ms.comm``).
* **series** — ``series`` + ``zscore_max``: a rolling EWMA mean/
  variance sweep over one per-iteration array (``wall_ms``,
  ``frontier_edges``, ... — :func:`slo_series` reads them off the
  run's trace records) flags iterations whose z-score against the
  running estimate exceeds the bound — latency spikes inside an
  otherwise-green run.
* **history** — ``metric`` + ``zscore_max`` + ``history: N``: the
  value is z-scored against the same metric across up to N prior runs
  of the *same workload fingerprint* (each prior resolved like the
  current value: its recorded ``slo`` indicators, then the dotted
  path); fewer than
  :data:`MIN_HISTORY` priors ⇒ SKIP (anomaly detection needs a
  baseline, and a young registry should not fail CI).

A missing value fails a rule unless ``required: false`` marks it
optional. :func:`evaluate` returns an :class:`SloReport` — one
PASS/FAIL/SKIP outcome per rule — which the ``repro slo check`` CLI
prints one line per rule and converts into its exit code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.documents import load_json, read_text
from repro.errors import SloConfigError
from repro.obs.metrics import quantile

if TYPE_CHECKING:
    from repro.obs.analysis import AnalysisSource

__all__ = [
    "SLO_SCHEMA",
    "MIN_HISTORY",
    "SloRule",
    "SloPolicy",
    "RuleOutcome",
    "SloReport",
    "load_policy",
    "policy_from_dict",
    "slo_indicators",
    "slo_series",
    "recovery_iterations",
    "ewma_zscores",
    "evaluate",
]

SLO_SCHEMA = "repro-slo/1"

#: Minimum prior runs before a history rule evaluates (else SKIP).
MIN_HISTORY = 3

#: EWMA smoothing used for baselines (series rules, chaos recovery).
DEFAULT_EWMA_ALPHA = 0.3

#: A post-fault iteration has "recovered" when its wall time is back
#: within this multiple of the pre-fault EWMA baseline.
RECOVERY_TOLERANCE = 1.5


# ---------------------------------------------------------------------------
# policy files


@dataclass(frozen=True)
class SloRule:
    """One parsed rule; exactly one of the three shapes is populated."""

    metric: Optional[str] = None
    series: Optional[str] = None
    max: Optional[float] = None
    min: Optional[float] = None
    zscore_max: Optional[float] = None
    history: Optional[int] = None
    ewma_alpha: float = DEFAULT_EWMA_ALPHA
    warmup: int = 5
    required: bool = True

    @property
    def kind(self) -> str:
        """``bound`` | ``series`` | ``history``."""
        if self.series is not None:
            return "series"
        if self.history is not None:
            return "history"
        return "bound"

    @property
    def label(self) -> str:
        """Stable one-token identity for report lines."""
        if self.kind == "series":
            return f"series[{self.series}]"
        if self.kind == "history":
            return f"history[{self.metric}]"
        return str(self.metric)

    def describe(self) -> str:
        """Human phrasing of the constraint."""
        if self.kind == "series":
            return f"|z| <= {self.zscore_max:g} (ewma)"
        if self.kind == "history":
            return f"|z| <= {self.zscore_max:g} vs last {self.history}"
        parts = []
        if self.max is not None:
            parts.append(f"<= {self.max:g}")
        if self.min is not None:
            parts.append(f">= {self.min:g}")
        return " and ".join(parts)


@dataclass(frozen=True)
class SloPolicy:
    """A validated rule file."""

    rules: Sequence[SloRule]
    source: str = "<inline>"


_RULE_KEYS = {
    "metric", "series", "max", "min", "zscore_max", "history",
    "ewma_alpha", "warmup", "required",
}


def _rule_from_dict(raw: Dict, where: str) -> SloRule:
    if not isinstance(raw, dict):
        raise SloConfigError(f"{where}: rule must be a mapping")
    unknown = set(raw) - _RULE_KEYS
    if unknown:
        raise SloConfigError(
            f"{where}: unknown rule key(s) {sorted(unknown)} "
            f"(known: {sorted(_RULE_KEYS)})"
        )
    metric = raw.get("metric")
    series = raw.get("series")
    if (metric is None) == (series is None):
        raise SloConfigError(
            f"{where}: exactly one of 'metric' or 'series' is required"
        )
    zscore_max = raw.get("zscore_max")
    history = raw.get("history")
    has_bound = raw.get("max") is not None or raw.get("min") is not None
    if series is not None:
        if zscore_max is None or has_bound or history is not None:
            raise SloConfigError(
                f"{where}: a series rule needs 'zscore_max' "
                "(and takes no max/min/history)"
            )
    elif history is not None:
        if zscore_max is None or has_bound:
            raise SloConfigError(
                f"{where}: a history rule needs 'zscore_max' "
                "(and takes no max/min)"
            )
        if int(history) < 1:
            raise SloConfigError(
                f"{where}: history must be >= 1, got {history}"
            )
    else:
        if not has_bound or zscore_max is not None:
            raise SloConfigError(
                f"{where}: a bound rule needs 'max' and/or 'min' "
                "(zscore_max needs 'series' or 'history')"
            )
    alpha = float(raw.get("ewma_alpha", DEFAULT_EWMA_ALPHA))
    if not 0.0 < alpha <= 1.0:
        raise SloConfigError(
            f"{where}: ewma_alpha must be in (0, 1], got {alpha}"
        )
    try:
        return SloRule(
            metric=metric,
            series=series,
            max=None if raw.get("max") is None else float(raw["max"]),
            min=None if raw.get("min") is None else float(raw["min"]),
            zscore_max=(
                None if zscore_max is None else float(zscore_max)
            ),
            history=None if history is None else int(history),
            ewma_alpha=alpha,
            warmup=int(raw.get("warmup", 5)),
            required=bool(raw.get("required", True)),
        )
    except (TypeError, ValueError) as exc:
        raise SloConfigError(f"{where}: bad rule value: {exc}") from exc


def policy_from_dict(
    payload: Dict, source: str = "<inline>"
) -> SloPolicy:
    """Validate a parsed rule document into an :class:`SloPolicy`."""
    if not isinstance(payload, dict):
        raise SloConfigError(f"{source}: rule file must be a mapping")
    schema = payload.get("schema")
    if schema != SLO_SCHEMA:
        raise SloConfigError(
            f"{source}: unsupported schema {schema!r} "
            f"(expected {SLO_SCHEMA})"
        )
    raw_rules = payload.get("rules")
    if not isinstance(raw_rules, list) or not raw_rules:
        raise SloConfigError(
            f"{source}: 'rules' must be a non-empty list"
        )
    rules = [
        _rule_from_dict(raw, f"{source}: rules[{i}]")
        for i, raw in enumerate(raw_rules)
    ]
    return SloPolicy(rules=tuple(rules), source=source)


def load_policy(path: Union[str, Path]) -> SloPolicy:
    """Load and validate a ``repro-slo/1`` YAML or JSON rule file."""
    path = Path(path)
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # keep the stdlib-only JSON path alive
            raise SloConfigError(
                f"{path}: PyYAML is not installed; use a .json rule "
                "file instead"
            ) from None
        text = read_text(path, SloConfigError, "SLO rules")
        try:
            payload = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise SloConfigError(
                f"{path}: malformed YAML ({exc})"
            ) from exc
    else:
        payload = load_json(path, SloConfigError, "SLO rules")
    return policy_from_dict(payload, source=str(path))


# ---------------------------------------------------------------------------
# indicators


def _ewma(values: Sequence[float], alpha: float) -> Optional[float]:
    mean: Optional[float] = None
    for value in values:
        mean = value if mean is None else mean + alpha * (value - mean)
    return mean


def recovery_iterations(
    wall_ms: Sequence[float],
    fault_positions: Sequence[int],
    alpha: float = DEFAULT_EWMA_ALPHA,
    tolerance: float = RECOVERY_TOLERANCE,
) -> Optional[int]:
    """Worst-case iterations-to-recover across fault injections.

    For each fault (a position into ``wall_ms``), the pre-fault EWMA of
    iteration wall time is the baseline; recovery is the number of
    iterations from the fault until wall time first returns within
    ``tolerance``× the baseline. A fault the run never recovers from
    counts every remaining iteration. ``None`` when there are no
    faults (or no iterations) to measure.
    """
    if not wall_ms or not fault_positions:
        return None
    worst: Optional[int] = None
    for position in fault_positions:
        position = max(0, int(position))
        if position >= len(wall_ms):
            continue
        baseline = _ewma(wall_ms[:position], alpha)
        if baseline is None or baseline <= 0:
            recovered = 0
        else:
            limit = tolerance * baseline
            recovered = len(wall_ms) - position
            for offset, value in enumerate(wall_ms[position:]):
                if value <= limit:
                    recovered = offset
                    break
        if worst is None or recovered > worst:
            worst = recovered
    return worst


def slo_series(source: AnalysisSource) -> Dict[str, list]:
    """The named per-superstep series of one run, one entry per record.

    ``source`` is anything :func:`repro.obs.analysis.iteration_costs`
    reads — a ``RunResult``, or a recorded ``(header, records)`` trace
    — so a live run and its archived ``trace.jsonl`` yield the same
    arrays (busy/stall ms to the trace's 6 decimals). These are the
    names ``series:`` rules scan.
    """
    # imported on call: recording a run reads only slo_indicators
    from repro.obs.analysis import iteration_costs

    __, costs = iteration_costs(source)
    return {
        "iteration": [cost.iteration for cost in costs],
        "wall_ms": [cost.wall_ms for cost in costs],
        "frontier_size": [cost.frontier_size for cost in costs],
        "frontier_edges": [cost.frontier_edges for cost in costs],
        "num_active": [len(cost.active) for cost in costs],
        "group_size": [cost.group_size for cost in costs],
        "stolen_edges": [cost.stolen_edges for cost in costs],
        "fsteal": [cost.fsteal for cost in costs],
        "critical_busy_ms": [cost.critical_ms for cost in costs],
        "mean_busy_ms": [cost.mean_busy_ms for cost in costs],
        "mean_stall_ms": [
            float(cost.stall_ms[cost.active].mean()) if cost.active
            else 0.0
            for cost in costs
        ],
    }


def slo_indicators(
    summary: Dict, series: Optional[Dict] = None
) -> Dict[str, Optional[float]]:
    """Named SLO indicators of one run.

    ``summary`` is a :func:`repro.runs.result_summary` dict (live or
    from a recorded manifest); ``series`` holds at least the
    ``wall_ms`` and ``iteration`` arrays of :func:`slo_series`
    (quantiles and recovery need the per-iteration shape — without it
    those indicators are ``None``).

    ``min_gpu_utilization`` is taken over *participating* GPUs
    (utilization > 0): under OSteal the scheduler deliberately folds
    the group, and an idled-by-design GPU is not an SLO violation.
    """
    series = series or {}
    wall_ms = [float(v) for v in series.get("wall_ms") or []]
    per_gpu = summary.get("per_gpu_utilization") or []
    participating = [float(u) for u in per_gpu if u and float(u) > 0.0]
    indicators: Dict[str, Optional[float]] = {
        "p50_iteration_ms": quantile(wall_ms, 0.50),
        "p90_iteration_ms": quantile(wall_ms, 0.90),
        "p99_iteration_ms": quantile(wall_ms, 0.99),
        "max_iteration_ms": max(wall_ms) if wall_ms else None,
        "min_gpu_utilization": (
            min(participating) if participating else None
        ),
        "max_stall_fraction": summary.get("stall_fraction"),
        "obs_overhead_pct": summary.get("obs_overhead_pct"),
    }
    # decision-ledger accuracy indicators: None for stateless policies
    # or manifests recorded before the ledger existed
    ledger = summary.get("ledger") or {}
    indicators["max_model_drift"] = ledger.get("max_model_drift")
    indicators["max_decision_error_p99"] = ledger.get(
        "decision_error_p99"
    )
    chaos = summary.get("chaos") or {}
    events = chaos.get("events") or []
    if events:
        iteration_numbers = list(series.get("iteration") or [])
        positions = []
        for event in events:
            iteration = event.get("iteration")
            if iteration is None:
                continue
            if iteration in iteration_numbers:
                positions.append(iteration_numbers.index(iteration))
            else:
                positions.append(int(iteration))
        indicators["chaos_recovery_iterations"] = recovery_iterations(
            wall_ms, positions
        )
    return indicators


def _lookup(payload: Dict, dotted: str):
    """Resolve ``a.b.c`` into nested dicts (``None`` when absent)."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _metric_value(
    indicators: Dict, summary: Dict, metric: str
) -> Optional[float]:
    """A rule's metric: the named indicator first, then the dotted path
    into the summary; ``None`` unless the value is a number."""
    value = indicators.get(metric)
    if value is None:
        value = _lookup(summary, metric)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    return float(value)


# ---------------------------------------------------------------------------
# evaluation


def ewma_zscores(
    values: Sequence[float], alpha: float, warmup: int
) -> List[Optional[float]]:
    """Rolling z-score of each sample against the EWMA mean/variance.

    The estimate at position ``i`` uses only samples ``< i`` and the
    first ``warmup`` positions yield ``None`` (an EWMA needs history
    before a z-score means anything — BFS ramp-up iterations would
    otherwise all look anomalous).
    """
    scores: List[Optional[float]] = []
    mean: Optional[float] = None
    var = 0.0
    for position, value in enumerate(values):
        value = float(value)
        if mean is None:
            scores.append(None)
            mean = value
            continue
        delta = value - mean
        if position < warmup:
            scores.append(None)
        elif var <= 0.0:
            # zero variance: an exact match scores 0, any deviation
            # from a perfectly flat baseline is infinitely anomalous
            scores.append(
                0.0 if abs(delta) <= 1e-12
                else math.copysign(math.inf, delta)
            )
        else:
            scores.append(delta / math.sqrt(var))
        mean += alpha * delta
        var = (1.0 - alpha) * (var + alpha * delta * delta)
    return scores


@dataclass(frozen=True)
class RuleOutcome:
    """PASS/FAIL/SKIP of one rule, with the evidence."""

    rule: SloRule
    status: str  # "PASS" | "FAIL" | "SKIP"
    observed: Optional[float] = None
    message: str = ""

    def line(self) -> str:
        """The one-line report entry for this rule."""
        return (
            f"{self.status:4s} {self.rule.label} "
            f"{self.rule.describe()} — {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly outcome (for the ``--report`` artifact)."""
        return {
            "label": self.rule.label,
            "kind": self.rule.kind,
            "constraint": self.rule.describe(),
            "status": self.status,
            "observed": self.observed,
            "message": self.message,
        }


@dataclass
class SloReport:
    """Every rule's outcome for one evaluated run."""

    outcomes: List[RuleOutcome] = field(default_factory=list)
    subject: str = ""

    @property
    def ok(self) -> bool:
        """True when no rule failed."""
        return not self.failures

    @property
    def failures(self) -> List[RuleOutcome]:
        """The failing outcomes."""
        return [o for o in self.outcomes if o.status == "FAIL"]

    @property
    def exit_code(self) -> int:
        """0 when green, 1 when any rule failed."""
        return 0 if self.ok else 1

    def lines(self) -> List[str]:
        """One line per rule plus a verdict line."""
        counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        verdict = "OK" if self.ok else "VIOLATION"
        out = [outcome.line() for outcome in self.outcomes]
        out.append(
            f"{verdict}: {counts['PASS']} passed, "
            f"{counts['FAIL']} failed, {counts['SKIP']} skipped"
            + (f" — {self.subject}" if self.subject else "")
        )
        return out

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly report (for the ``--report`` artifact)."""
        return {
            "schema": SLO_SCHEMA,
            "subject": self.subject,
            "ok": self.ok,
            "rules": [o.as_dict() for o in self.outcomes],
        }


def _missing(rule: SloRule, what: str) -> RuleOutcome:
    status = "FAIL" if rule.required else "SKIP"
    return RuleOutcome(rule, status, None, f"{what} unavailable")


def _eval_bound(
    rule: SloRule, indicators: Dict, summary: Dict
) -> RuleOutcome:
    value = _metric_value(indicators, summary, rule.metric)
    if value is None:
        return _missing(rule, f"metric {rule.metric!r}")
    if rule.max is not None and value > rule.max:
        return RuleOutcome(
            rule, "FAIL", value,
            f"observed {value:g} > max {rule.max:g}",
        )
    if rule.min is not None and value < rule.min:
        return RuleOutcome(
            rule, "FAIL", value,
            f"observed {value:g} < min {rule.min:g}",
        )
    return RuleOutcome(rule, "PASS", value, f"observed {value:g}")


def _eval_series(rule: SloRule, series: Dict) -> RuleOutcome:
    values = series.get(rule.series)
    if not values:
        return _missing(rule, f"series {rule.series!r}")
    scores = ewma_zscores(values, rule.ewma_alpha, rule.warmup)
    worst: Optional[float] = None
    worst_position = -1
    for position, score in enumerate(scores):
        if score is None:
            continue
        if worst is None or abs(score) > abs(worst):
            worst = score
            worst_position = position
    if worst is None:
        return RuleOutcome(
            rule, "PASS", None,
            f"{len(values)} samples, all inside warmup",
        )
    if abs(worst) > rule.zscore_max:
        return RuleOutcome(
            rule, "FAIL", worst,
            f"iteration {worst_position}: |z|={abs(worst):.2f} "
            f"> {rule.zscore_max:g}",
        )
    return RuleOutcome(
        rule, "PASS", worst,
        f"worst |z|={abs(worst):.2f} at iteration {worst_position}",
    )


def _eval_history(
    rule: SloRule,
    indicators: Dict,
    summary: Dict,
    history: Sequence[Dict],
) -> RuleOutcome:
    value = _metric_value(indicators, summary, rule.metric)
    if value is None:
        return _missing(rule, f"metric {rule.metric!r}")
    prior = []
    for prior_summary in list(history)[-rule.history:]:
        # a recorded summary keeps its named indicators under "slo"
        prior_value = _metric_value(
            prior_summary.get("slo") or {}, prior_summary, rule.metric
        )
        if prior_value is not None:
            prior.append(prior_value)
    if len(prior) < MIN_HISTORY:
        return RuleOutcome(
            rule, "SKIP", value,
            f"{len(prior)} comparable prior runs (need "
            f">= {MIN_HISTORY})",
        )
    mean = sum(prior) / len(prior)
    var = sum((p - mean) ** 2 for p in prior) / len(prior)
    std = math.sqrt(var)
    if std <= 1e-12:
        score = 0.0 if abs(value - mean) <= 1e-12 else math.inf
    else:
        score = (value - mean) / std
    if abs(score) > rule.zscore_max:
        return RuleOutcome(
            rule, "FAIL", score,
            f"observed {value:g} vs mean {mean:g} over "
            f"{len(prior)} runs: |z|={abs(score):.2f} "
            f"> {rule.zscore_max:g}",
        )
    return RuleOutcome(
        rule, "PASS", score,
        f"|z|={abs(score):.2f} over {len(prior)} runs",
    )


def evaluate(
    policy: SloPolicy,
    summary: Dict,
    series: Optional[Dict] = None,
    history: Optional[Sequence[Dict]] = None,
    subject: str = "",
) -> SloReport:
    """Evaluate every rule of ``policy`` against one run.

    ``summary``/``series`` (:func:`slo_series`) describe the run under
    test;
    ``history`` is a list of *prior* comparable run summaries (oldest
    first) for history rules. Missing inputs degrade per-rule
    (FAIL when ``required``, SKIP otherwise) — never raise.
    """
    series = series or {}
    indicators = slo_indicators(summary, series)
    report = SloReport(subject=subject)
    for rule in policy.rules:
        if rule.kind == "series":
            outcome = _eval_series(rule, series)
        elif rule.kind == "history":
            outcome = _eval_history(
                rule, indicators, summary, history or []
            )
        else:
            outcome = _eval_bound(rule, indicators, summary)
        report.outcomes.append(outcome)
    return report
