"""CLI tests for ``repro bench`` selection and decision-stat surfacing."""

import json

import pytest

from repro.bench import perfharness
from repro.cli import main


def test_bench_list_cases(capsys):
    assert main(["bench", "--list-cases"]) == 0
    names = capsys.readouterr().out.split()
    assert names == sorted(names)
    assert set(names) == set(perfharness.BENCH_CASES)
    # the measured family is listed next to the timed cases ...
    for family in ("costmodel.refit_loop", "costmodel.fit_reference"):
        assert family in names
    # ... but an unfiltered run is exactly the timed set the committed
    # hot-path baseline was recorded over
    baseline = perfharness.load_report("benchmarks/perf/baseline.json")
    assert {case.name for case in perfharness.select_cases()} == \
        set(baseline["benchmarks"])
    assert all(case.timed for case in perfharness.select_cases())
    # the ISSUE-4 decision-path cases are registered
    assert "decision.iteration.cold.tailTX.8gpu" in names
    assert "decision.iteration.amortized.tailTX.8gpu" in names
    assert "decision.osteal.scan.8gpu" in names
    assert "decision.osteal.bracket.8gpu" in names
    assert "decision.fsteal.cached.64x8" in names


def test_bench_filter_isolates_cases(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main([
        "bench", "--filter", "assembly.dense", "--repeats", "1",
        "--no-compare", "--out", str(out), "--json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["benchmarks"]) == ["assembly.dense.64x8"]
    assert json.loads(out.read_text()) == report


def test_bench_filter_matches_substring_across_cases(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main([
        "bench", "--filter", "assembly", "--repeats", "1",
        "--no-compare", "--out", str(out), "--json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["benchmarks"]) == {
        "assembly.dense.64x8", "assembly.sparse.64x8",
    }


def test_bench_filter_unknown_substring_errors(tmp_path, capsys):
    code = main([
        "bench", "--filter", "no-such-case", "--repeats", "1",
        "--no-compare", "--out", str(tmp_path / "bench.json"),
    ])
    assert code == 2
    assert "no benchmark case" in capsys.readouterr().err


def test_bench_measured_case_gates_on_its_own_violations(
    tmp_path, capsys, monkeypatch
):
    entry = {"answer": 42, "violations": [], "summary": "answer 42"}
    monkeypatch.setitem(
        perfharness.BENCH_CASES, "stub.measured",
        perfharness.BenchCase(
            name="stub.measured", setup=lambda: lambda: entry,
            meta={"on_demand": True}, timed=False,
        ),
    )
    argv = [
        "bench", "--filter", "stub.measured",
        "--out", str(tmp_path / "bench.json"),
        "--baseline", str(tmp_path / "absent.json"),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "answer 42" in out and "calibration" not in out
    report = json.loads((tmp_path / "bench.json").read_text())
    assert report["benchmarks"]["stub.measured"]["answer"] == 42
    # a violated invariant is exit 1 even with nothing committed to
    # compare against (the costmodel.*/replay.* gates work this way)
    entry["violations"] = ["the answer is wrong"]
    assert main(argv) == 1
    assert "stub.measured: the answer is wrong" in \
        capsys.readouterr().err


def test_run_json_reports_decision_cache(capsys):
    code = main([
        "run", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gum", "--gpus", "2", "--cost-model", "oracle",
        "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    cache = payload["decision_cache"]
    assert cache["amortize"] is True
    for key in ("hits", "misses", "invalidations", "evictions",
                "warm_accepts"):
        assert key in cache


def test_run_no_amortize_flag(capsys):
    code = main([
        "run", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gum", "--gpus", "2", "--cost-model", "oracle",
        "--no-amortize", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decision_cache"]["amortize"] is False


def test_profile_prints_decision_cache_line(tmp_path, capsys):
    code = main([
        "profile", "--graph", "TX", "--algorithm", "sssp",
        "--engine", "gum", "--gpus", "2", "--cost-model", "oracle",
        "--out", str(tmp_path / "p.trace.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "decision cache" in out
    assert "warm accepts" in out


def test_recorded_run_diff_shows_decision_metrics(tmp_path, capsys):
    root = tmp_path / "registry"
    for __ in range(2):
        assert main([
            "run", "--graph", "TX", "--algorithm", "bfs",
            "--engine", "gum", "--gpus", "2", "--cost-model", "oracle",
            "--record", "--runs-dir", str(root),
        ]) == 0
    capsys.readouterr()
    ids = sorted(
        p.name for p in root.iterdir()
        if (p / "manifest.json").is_file()
    )
    assert main(["runs", "diff", ids[0], ids[1],
                 "--runs-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "decision_cache.hits" in out
    assert "OK" in out
