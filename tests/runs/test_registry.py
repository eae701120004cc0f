"""Unit tests for the run registry and cross-run diffs."""

import copy
import json

import pytest

import repro
from repro.errors import RunRegistryError
from repro.hardware import dgx1
from repro.obs import MetricsRegistry, analyze
from repro.runs import (
    RUN_SCHEMA,
    RunRegistry,
    diff_manifests,
    format_diff,
    provenance_fingerprint,
    workload_fingerprint,
)
from repro.obs.ledger import Ledger
from repro.runs import registry as registry_module
from repro.runs.registry import WORKLOAD_KEYS
from repro.runtime import BSPEngine


@pytest.fixture(scope="module")
def result(skewed_graph, skewed_partition, source):
    return BSPEngine(dgx1(8)).run(
        skewed_graph, skewed_partition, "bfs", source=source
    )


@pytest.fixture()
def workload():
    return workload_fingerprint(
        engine="bsp", algorithm="bfs", graph="skewed", num_gpus=8
    )


@pytest.fixture()
def registry(tmp_path):
    return RunRegistry(tmp_path / "runs")


@pytest.fixture()
def recorded(registry, result, workload):
    metrics = MetricsRegistry()
    metrics.counter("engine.iterations").inc(result.num_iterations)
    run_id = registry.record_result(result, workload,
                                    metrics=metrics.snapshot())
    return run_id


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_workload_fingerprint_covers_all_gate_keys(workload):
    assert set(workload) == set(WORKLOAD_KEYS)
    assert workload["seed"] == 42  # config.DEFAULT_SEED
    assert workload["partition_seed"] == 0


def test_provenance_records_git_and_versions():
    provenance = provenance_fingerprint()
    assert {"git_sha", "repro", "python", "numpy", "scipy"} <= set(
        provenance
    )
    # inside this checkout the SHA must resolve
    assert provenance["git_sha"] != "unknown"
    assert len(provenance["git_sha"]) == 40


def test_provenance_is_read_once_per_process(monkeypatch):
    calls = []
    git_sha = registry_module._git_sha
    monkeypatch.setattr(registry_module, "_git_sha",
                        lambda: calls.append(1) or git_sha())
    registry_module._provenance.cache_clear()
    first = provenance_fingerprint()
    first["git_sha"] = "edited by a caller"
    assert provenance_fingerprint()["git_sha"] != "edited by a caller"
    assert len(calls) == 1


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def test_recording_folds_the_ledger_analytics_once(
        registry, skewed_graph, source, monkeypatch):
    """The manifest's ledger summary and ledger.json share one fold."""
    result = repro.run(skewed_graph, "bfs", num_gpus=4, source=source)
    folds = []
    fold = Ledger._fold_analytics
    monkeypatch.setattr(Ledger, "_fold_analytics",
                        lambda self, *args: folds.append(1)
                        or fold(self, *args))
    run_id = registry.record_result(result, workload_fingerprint(
        engine="gum", algorithm="bfs", graph="skewed", num_gpus=4,
    ))
    assert len(folds) == 1
    summary = registry.load_manifest(run_id)["summary"]["ledger"]
    analytics = registry.load_ledger(run_id)["analytics"]
    assert summary["samples"] == analytics["samples"] > 0
    assert summary["final_rmsre"] == analytics["final_rmsre"]


def test_record_writes_all_artifacts(registry, recorded, result):
    run_dir = registry.root / recorded
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["schema"] == RUN_SCHEMA
    assert manifest["kind"] == "run"
    assert manifest["id"] == recorded
    assert manifest["summary"]["total_ms"] == pytest.approx(
        result.total_ms
    )
    assert manifest["metrics"]["engine.iterations"]["total"] == (
        result.num_iterations
    )
    header, records = registry.load_run_trace(recorded)
    assert len(records) == result.num_iterations
    # no ledger (a static policy), and no second per-superstep record
    assert manifest["files"] == ["manifest.json", "trace.jsonl"]
    assert sorted(p.name for p in run_dir.iterdir()) == manifest["files"]


def test_manifest_is_byte_stable(registry, recorded):
    raw = (registry.root / recorded / "manifest.json").read_text()
    manifest = json.loads(raw)
    assert raw == json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def test_recorded_trace_analyzes(registry, recorded, result):
    report = analyze(registry.load_run_trace(recorded))
    assert report.total_ms == pytest.approx(result.total_ms, rel=1e-6)


def test_record_bench(registry):
    report = {"schema": "repro-bench/1", "benchmarks": {
        "case": {"score": 1.0, "seconds": 0.1, "calls": 3}}}
    run_id = registry.record_bench(report)
    manifest = registry.load_manifest(run_id)
    assert manifest["kind"] == "bench"
    assert manifest["report"]["benchmarks"]["case"]["score"] == 1.0


# ----------------------------------------------------------------------
# Lookup
# ----------------------------------------------------------------------
def test_resolve_by_id_prefix_latest_and_path(
        registry, recorded, result, workload):
    assert registry.resolve(recorded).name == recorded
    assert registry.resolve(recorded[:10]).name == recorded
    assert registry.resolve("latest").name == recorded
    run_dir = registry.root / recorded
    assert registry.resolve(str(run_dir)) == run_dir
    assert registry.resolve(str(run_dir / "manifest.json")) == run_dir


def test_resolve_unknown_and_ambiguous(registry, recorded, result,
                                       workload):
    with pytest.raises(RunRegistryError, match="unknown run"):
        registry.resolve("no-such-run")
    second = registry.record_result(result, workload)
    assert second != recorded
    with pytest.raises(RunRegistryError, match="ambiguous"):
        # both ids share the engine/algorithm/graph slug
        registry.resolve("bsp-bfs-skewed")


def test_resolve_an_exact_id_without_parsing_the_registry(
        registry, result, workload, monkeypatch):
    """An exact id is its directory; prefixes and ``latest`` scan the
    manifests, which skip a broken one, and loading a broken manifest
    by its exact id is a RunRegistryError."""
    ids = [registry.record_result(result, workload) for __ in range(3)]
    broken = registry.root / ids[1] / "manifest.json"
    broken.write_text("{not json")
    assert registry.resolve(ids[2][:-1]).name == ids[2]
    assert registry.resolve("latest").name == ids[2]
    with pytest.raises(RunRegistryError, match="malformed"):
        registry.load_manifest(ids[1])

    def scan():
        raise AssertionError("an exact id parsed the registry")

    monkeypatch.setattr(registry, "manifests", scan)
    for run_id in ids:
        assert registry.resolve(run_id) == registry.root / run_id
    assert registry.load_manifest(ids[0])["id"] == ids[0]


def test_empty_registry(registry):
    assert registry.ids() == []
    with pytest.raises(RunRegistryError, match="no runs recorded"):
        registry.resolve("latest")


def test_corrupt_manifest_rejected(registry, recorded):
    path = registry.root / recorded / "manifest.json"
    path.write_text("{not json")
    with pytest.raises(RunRegistryError, match="malformed"):
        registry.load_manifest(str(registry.root / recorded))
    # valid JSON that is not an object is just as unusable, and a
    # listing skips it like any other broken manifest
    path.write_text("[]")
    with pytest.raises(RunRegistryError, match="JSON object"):
        registry.load_manifest(str(registry.root / recorded))
    assert registry.manifests() == []


def test_wrong_schema_rejected(registry, recorded):
    path = registry.root / recorded / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["schema"] = "somebody-else/9"
    path.write_text(json.dumps(manifest))
    with pytest.raises(RunRegistryError, match="unsupported"):
        registry.load_manifest(str(registry.root / recorded))


# ----------------------------------------------------------------------
# GC
# ----------------------------------------------------------------------
def test_gc_keeps_newest(registry, result, workload):
    ids = [registry.record_result(result, workload) for __ in range(3)]
    removed = registry.gc(keep=1, dry_run=True)
    assert removed == ids[:2]
    assert len(registry.ids()) == 3  # dry run deleted nothing
    removed = registry.gc(keep=1)
    assert removed == ids[:2]
    assert registry.ids() == [ids[2]]
    with pytest.raises(RunRegistryError, match="keep"):
        registry.gc(keep=-1)


# ----------------------------------------------------------------------
# Diffs
# ----------------------------------------------------------------------
def test_diff_identical_is_silent(registry, recorded):
    manifest = registry.load_manifest(recorded)
    diff = diff_manifests(manifest, manifest)
    assert diff.ok
    assert diff.regressions == []
    assert diff.notes == []
    text = format_diff(diff, verbose=False)
    assert "OK" in text
    assert "REGRESSED" not in text


def test_diff_flags_injected_regression(registry, recorded):
    base = registry.load_manifest(recorded)
    worse = copy.deepcopy(base)
    # acceptance criterion: a >=30% injected regression must be flagged
    worse["summary"]["total_ms"] *= 1.5
    diff = diff_manifests(base, worse)
    assert not diff.ok
    names = [delta.name for delta in diff.regressions]
    assert "total_ms" in names
    assert "REGRESSED" in format_diff(diff)
    # the reverse direction (an improvement) never fails the gate
    assert diff_manifests(worse, base).ok


def test_diff_absolute_floor_guards_tiny_metrics(registry, recorded):
    base = registry.load_manifest(recorded)
    current = copy.deepcopy(base)
    base["summary"]["breakdown_ms"]["serialization"] = 1e-5
    current["summary"]["breakdown_ms"]["serialization"] = 1e-4
    # 10x relative change, but far below the 1e-3 ms floor: noise
    diff = diff_manifests(base, current)
    assert diff.ok


def test_diff_refuses_incommensurable(registry, recorded):
    base = registry.load_manifest(recorded)
    other = copy.deepcopy(base)
    other["fingerprint"]["workload"]["num_gpus"] = 4
    other["fingerprint"]["workload"]["seed"] = 7
    with pytest.raises(RunRegistryError) as excinfo:
        diff_manifests(base, other)
    message = str(excinfo.value)
    assert "incommensurable" in message
    assert "num_gpus" in message and "seed" in message
    forced = diff_manifests(base, other, force=True)
    assert any("workload mismatch" in note for note in forced.notes)


def test_diff_reports_provenance_changes(registry, recorded):
    base = registry.load_manifest(recorded)
    current = copy.deepcopy(base)
    current["fingerprint"]["provenance"]["git_sha"] = "f" * 40
    diff = diff_manifests(base, current)
    assert diff.ok  # provenance never gates
    assert any("git_sha" in note for note in diff.notes)


def test_diff_kind_mismatch(registry, recorded):
    base = registry.load_manifest(recorded)
    bench = copy.deepcopy(base)
    bench["kind"] = "bench"
    with pytest.raises(RunRegistryError, match="cannot diff"):
        diff_manifests(base, bench)


def test_diff_bench_kind_uses_perfharness_guards(registry):
    report = {"schema": "repro-bench/1", "calibration_seconds": 1e-3,
              "benchmarks": {
                  "fast": {"score": 1.0, "seconds": 0.1, "calls": 3,
                           "meta": {}}}}
    base_id = registry.record_bench(report)
    worse = copy.deepcopy(report)
    worse["benchmarks"]["fast"]["score"] = 1.5
    worse["benchmarks"]["fast"]["seconds"] = 0.15
    worse_id = registry.record_bench(worse)
    diff = diff_manifests(registry.load_manifest(base_id),
                          registry.load_manifest(worse_id))
    assert not diff.ok
    assert diff.regressions[0].name == "bench.fast.score"
    # identical bench reports are clean
    assert diff_manifests(registry.load_manifest(base_id),
                          registry.load_manifest(base_id)).ok
    # a measured case diffs on its violations only: its other fields
    # are host-local measurements
    report["benchmarks"]["replay.x"] = {
        "wall_seconds": 1.0, "violations": [], "meta": {}}
    base_id = registry.record_bench(report)
    drifted = copy.deepcopy(report)
    drifted["benchmarks"]["replay.x"]["wall_seconds"] = 9.0
    drifted["benchmarks"]["replay.x"]["violations"] = ["lost identity"]
    diff = diff_manifests(registry.load_manifest(base_id), registry.
                          load_manifest(registry.record_bench(drifted)))
    assert [d.name for d in diff.regressions] == ["bench.replay.x.violations"]
    assert [d.name for d in diff.deltas] == [
        "bench.fast.score", "bench.replay.x.violations",
    ]


def test_diff_as_dict_is_json(registry, recorded):
    manifest = registry.load_manifest(recorded)
    payload = diff_manifests(manifest, manifest).as_dict()
    json.dumps(payload)
    assert payload["ok"] is True
