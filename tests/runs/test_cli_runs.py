"""CLI tests for the ``repro runs`` command family."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def runs_dir(tmp_path_factory):
    """One recorded TX/bfs run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("registry")
    code = main([
        "runs", "record", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gum", "--gpus", "4", "--cost-model", "oracle",
        "--runs-dir", str(root),
    ])
    assert code == 0
    return root


def test_runs_record_and_list(runs_dir, capsys):
    assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
    out = capsys.readouterr().out
    assert "gum-bfs-TX-4gpu" in out
    assert "run" in out


def test_runs_list_json(runs_dir, capsys):
    assert main(["runs", "list", "--json",
                 "--runs-dir", str(runs_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) >= 1
    assert payload[0]["kind"] == "run"
    assert payload[0]["total_ms"] > 0


def test_runs_show(runs_dir, capsys):
    assert main(["runs", "show", "latest",
                 "--runs-dir", str(runs_dir)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["schema"] == "repro-run/1"
    assert manifest["fingerprint"]["workload"]["graph"] == "TX"
    assert manifest["fingerprint"]["workload"]["cost_model"] == "oracle"


def test_runs_analyze(runs_dir, capsys):
    assert main(["runs", "analyze", "latest",
                 "--runs-dir", str(runs_dir)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "attribution" in out


def test_runs_analyze_json(runs_dir, capsys):
    code = main([
        "runs", "analyze", "latest", "--runs-dir", str(runs_dir),
        "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    buckets = payload["analysis"]["buckets_ms"]
    total = payload["analysis"]["total_ms"]
    assert sum(buckets.values()) == pytest.approx(total, rel=0.01)
    assert set(payload) == {"analysis"}


def test_runs_analyze_has_no_estimated_whatifs(runs_dir):
    # what-ifs are re-executions now: run --no-fsteal, or --chaos with
    # a slow_worker scenario, then runs diff --force
    for flag in ("--scale-gpu", "--scale-compute", "--zero-overhead",
                 "--drop-fsteal"):
        with pytest.raises(SystemExit):
            main(["runs", "analyze", "latest", "--runs-dir",
                  str(runs_dir), flag])


def test_runs_diff_self_is_clean(runs_dir, capsys):
    code = main(["runs", "diff", "latest", "latest", "--quiet",
                 "--runs-dir", str(runs_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "REGRESSED" not in out


def test_runs_diff_flags_regression(runs_dir, tmp_path, capsys):
    base_dir = sorted(
        p for p in runs_dir.iterdir()
        if (p / "manifest.json").is_file()
    )[0]
    worse = json.loads((base_dir / "manifest.json").read_text())
    worse["id"] = "injected"
    worse["summary"]["total_ms"] *= 1.5
    injected = tmp_path / "injected"
    injected.mkdir()
    (injected / "manifest.json").write_text(json.dumps(worse))
    code = main(["runs", "diff", str(base_dir), str(injected),
                 "--runs-dir", str(runs_dir)])
    assert code == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_runs_diff_refuses_a_no_fsteal_run_as_the_same_workload(
        tmp_path, capsys):
    run_dirs = []
    for name, flags in (("default", []), ("no-fsteal", ["--no-fsteal"])):
        root = tmp_path / name
        assert main(["run", "--graph", "TX", "--algorithm", "bfs",
                     "--gpus", "4", *flags, "--record",
                     "--runs-dir", str(root)]) == 0
        run_dirs += [p for p in root.iterdir()
                     if (p / "manifest.json").is_file()]
    base, current = run_dirs
    workloads = [json.loads((p / "manifest.json").read_text())
                 ["fingerprint"]["workload"] for p in (base, current)]
    # only the disabled toggle is recorded, so a default run's
    # fingerprint keeps the keys it always had
    assert "fsteal" not in workloads[0]
    assert workloads[1] == dict(workloads[0], fsteal=False)
    capsys.readouterr()
    assert main(["runs", "diff", str(base), str(current),
                 "--runs-dir", str(tmp_path)]) == 2
    assert "fsteal" in capsys.readouterr().err


def test_runs_diff_incommensurable_exits_2(runs_dir, tmp_path, capsys):
    base_dir = sorted(
        p for p in runs_dir.iterdir()
        if (p / "manifest.json").is_file()
    )[0]
    other = json.loads((base_dir / "manifest.json").read_text())
    other["id"] = "other-workload"
    other["fingerprint"]["workload"]["graph"] = "USA"
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    (other_dir / "manifest.json").write_text(json.dumps(other))
    code = main(["runs", "diff", str(base_dir), str(other_dir),
                 "--runs-dir", str(runs_dir)])
    assert code == 2
    assert "incommensurable" in capsys.readouterr().err
    # --force downgrades the refusal to a note
    code = main(["runs", "diff", str(base_dir), str(other_dir),
                 "--force", "--quiet", "--runs-dir", str(runs_dir)])
    assert code == 0


def test_runs_unknown_ref_exits_2(runs_dir, capsys):
    code = main(["runs", "show", "no-such-run",
                 "--runs-dir", str(runs_dir)])
    assert code == 2
    assert "unknown run" in capsys.readouterr().err


def test_run_command_record_flag(tmp_path, capsys):
    root = tmp_path / "registry"
    code = main([
        "run", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gunrock", "--gpus", "2", "--json",
        "--record", "--runs-dir", str(root),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    run_id = payload["run_id"]
    assert (root / run_id / "manifest.json").is_file()
    assert (root / run_id / "trace.jsonl").is_file()
    # the trace is the one per-superstep record a run directory keeps
    assert not (root / run_id / "timeseries.json").exists()


def test_profile_command_record_flag(tmp_path, capsys):
    root = tmp_path / "registry"
    code = main([
        "profile", "--graph", "TX", "--algorithm", "bfs",
        "--gpus", "2", "--cost-model", "oracle",
        "--out", str(tmp_path / "p.trace.json"),
        "--record", "--runs-dir", str(root), "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    manifest = json.loads(
        (root / payload["run_id"] / "manifest.json").read_text()
    )
    # profile always collects metrics; they must land in the manifest
    assert "engine.iterations" in manifest["metrics"]
    # and the archived run must be diffable against itself via the CLI
    assert main(["runs", "diff", "latest", "latest", "--quiet",
                 "--runs-dir", str(root)]) == 0


def test_runs_gc(tmp_path, capsys):
    root = tmp_path / "registry"
    for __ in range(2):
        assert main([
            "run", "--graph", "TX", "--algorithm", "bfs",
            "--engine", "bsp", "--gpus", "2",
            "--record", "--runs-dir", str(root),
        ]) == 0
    capsys.readouterr()
    assert main(["runs", "gc", "--keep", "1",
                 "--runs-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "removed 1 run(s)" in out
    assert main(["runs", "list", "--json",
                 "--runs-dir", str(root)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1


@pytest.mark.parametrize("verb, engines", [
    (["run", "--record", "--json"], 1),
    (["profile", "--record", "--out", "{tmp}/p.trace.json"], 1),
    (["runs", "record", "--json"], 1),
    (["compare", "--record", "--json"], 3),
], ids=["run", "profile", "runs-record", "compare"])
def test_a_recorded_run_is_folded_once(verb, engines, tmp_path, capsys,
                                       monkeypatch):
    """The manifest and the printed summary are one ``result_summary``
    fold per engine, not one each."""
    import repro.runs.registry

    folded = []

    def counting(result):
        folded.append(result.engine)
        return summarize(result)

    summarize = repro.runs.registry.result_summary
    monkeypatch.setattr(repro.runs.registry, "result_summary", counting)
    code = main([
        *(part.format(tmp=tmp_path) for part in verb),
        "--graph", "TX", "--algorithm", "bfs", "--gpus", "4",
        "--cost-model", "oracle", "--runs-dir", str(tmp_path / "runs"),
    ])
    capsys.readouterr()
    assert code == 0
    assert len(folded) == engines
    assert len(list((tmp_path / "runs").iterdir())) == engines
