"""Persistent run registry and cross-run regression diffs.

* :class:`RunRegistry` — archive a finished run (manifest + trace +
  per-iteration timeseries) under ``.repro/runs/<id>/``, look runs up
  by id/prefix/``latest``/path, and prune old ones.
* :func:`diff_manifests` — compare two recorded runs metric by metric
  with the perfharness noise guards; refuses incommensurable runs
  (different workload fingerprint) instead of printing garbage deltas.

The CLI surface is ``repro runs record|list|show|analyze|diff|gc``
plus ``--record`` on ``run``/``compare``/``profile``/``bench``.
"""

from repro.runs.registry import (
    DEFAULT_RUNS_ROOT,
    RUN_SCHEMA,
    RunRegistry,
    environment_info,
    provenance_fingerprint,
    result_summary,
    workload_fingerprint,
)
from repro.runs.diff import (
    MetricDelta,
    MetricSpec,
    RUN_METRICS,
    RunDiff,
    diff_manifests,
    format_diff,
)

__all__ = [
    "RUN_SCHEMA",
    "DEFAULT_RUNS_ROOT",
    "RunRegistry",
    "result_summary",
    "workload_fingerprint",
    "provenance_fingerprint",
    "environment_info",
    "MetricSpec",
    "MetricDelta",
    "RUN_METRICS",
    "RunDiff",
    "diff_manifests",
    "format_diff",
]
