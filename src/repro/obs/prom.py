"""Prometheus text-format exposition for metrics snapshots.

A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` is the repo's
native metrics shape; this module renders one in the Prometheus
`text exposition format`, so a run's final (or periodically streamed)
metrics can be scraped, pushed to a gateway, or committed as a CI
artifact without any new dependency.

Mapping:

* counter → ``counter`` (one sample per label series, plus an
  unlabelled total when the counter has labelled series);
* gauge → ``gauge`` (skipped while unset);
* histogram → Prometheus *summary*: ``{quantile="0.5|0.9|0.99"}``
  samples from the deterministic p50/p90/p99, plus ``_count``,
  ``_sum``, ``_min``, ``_max`` companions.

Any other ``type`` (a ``timeseries`` in a manifest archived before the
registry dropped that kind) is skipped.

Names are sanitised to the Prometheus grammar (dots and other
punctuation become underscores) and prefixed (default ``repro_``).
Output is sorted by metric name, so the same snapshot always renders
byte-identical text — diffable like everything else in ``repro.obs``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ReproError

__all__ = ["prom_name", "prom_text", "write_prom"]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: Histogram quantiles exported as Prometheus summary samples.
_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def prom_name(name: str, prefix: str = "repro") -> str:
    """Sanitise a registry metric name into a Prometheus name."""
    base = _NAME_OK.sub("_", name)
    if prefix:
        base = f"{prefix}_{base}"
    if base and base[0].isdigit():
        base = f"_{base}"
    return base


def _fmt(value: float) -> str:
    """Render a sample value (ints without trailing .0)."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _labels(series_key: str) -> str:
    """``"bucket=comm,gpu=0"`` → ``{bucket="comm",gpu="0"}``."""
    if not series_key:
        return ""
    pairs = []
    for part in series_key.split(","):
        key, _, value = part.partition("=")
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        pairs.append(f'{key}="{escaped}"')
    return "{" + ",".join(pairs) + "}"


def _counter_lines(name: str, snap: Dict, help: str) -> List[str]:
    lines = [f"# HELP {name} {help}", f"# TYPE {name} counter"]
    series = snap.get("series") or {}
    if series:
        for key in sorted(series):
            lines.append(f"{name}{_labels(key)} {_fmt(series[key])}")
    else:
        lines.append(f"{name} {_fmt(snap.get('total', 0.0))}")
    return lines


def _gauge_lines(name: str, value: float, help: str) -> List[str]:
    return [
        f"# HELP {name} {help}",
        f"# TYPE {name} gauge",
        f"{name} {_fmt(value)}",
    ]


def _summary_lines(name: str, snap: Dict, help: str) -> List[str]:
    lines = [f"# HELP {name} {help}", f"# TYPE {name} summary"]
    for label, key in _QUANTILES:
        value = snap.get(key)
        if value is not None:
            lines.append(f'{name}{{quantile="{label}"}} {_fmt(value)}')
    lines.append(f"{name}_sum {_fmt(snap.get('sum', 0.0))}")
    lines.append(f"{name}_count {_fmt(snap.get('count', 0))}")
    for extra in ("min", "max"):
        value = snap.get(extra)
        if value is not None:
            lines.append(f"{name}_{extra} {_fmt(value)}")
    return lines


def prom_text(
    snapshot: Dict[str, Dict[str, object]],
    prefix: str = "repro",
) -> str:
    """Render a metrics snapshot as Prometheus exposition text."""
    out: List[str] = []
    for raw_name in sorted(snapshot):
        snap = snapshot[raw_name]
        kind = snap.get("type")
        name = prom_name(raw_name, prefix)
        help = f"repro metric {raw_name}"
        if kind == "counter":
            out.extend(_counter_lines(name, snap, help))
        elif kind == "gauge":
            value = snap.get("value")
            if value is not None:
                out.extend(_gauge_lines(name, value, help))
        elif kind == "histogram":
            out.extend(_summary_lines(name, snap, help))
        # unknown types are skipped: forward compatibility over noise
    return "\n".join(out) + ("\n" if out else "")


def write_prom(
    path: Union[str, Path],
    snapshot: Dict[str, Dict[str, object]],
    prefix: str = "repro",
) -> Optional[Path]:
    """Write exposition text to ``path`` (parents created)."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(prom_text(snapshot, prefix=prefix))
    except OSError as exc:
        raise ReproError(
            f"cannot write Prometheus snapshot {path}: {exc}"
        ) from exc
    return path
