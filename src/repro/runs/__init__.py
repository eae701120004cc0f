"""Persistent run registry and cross-run regression diffs.

* :class:`RunRegistry` — archive a finished run (manifest + trace,
  plus the decision ledger) under ``.repro/runs/<id>/``, look runs up
  by id/prefix/``latest``/path, and prune old ones.
* :func:`diff_manifests` — compare two recorded runs metric by metric
  with the perfharness noise guards; refuses incommensurable runs
  (different workload fingerprint) instead of printing garbage deltas.

The CLI surface is ``repro runs record|list|show|analyze|diff|gc``
plus ``--record`` on ``run``/``compare``/``profile``/``bench``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runs.registry": (
        "RUN_SCHEMA", "DEFAULT_RUNS_ROOT", "RunRegistry", "result_summary",
        "workload_fingerprint", "provenance_fingerprint", "environment_info",
    ),
    "repro.runs.diff": (
        "MetricSpec", "MetricDelta", "RUN_METRICS", "RunDiff",
        "diff_manifests", "format_diff",
    ),
})
