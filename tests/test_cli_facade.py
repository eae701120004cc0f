"""Unit tests for the CLI and the one-call facade."""

import json

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.errors import EngineError
from repro.runs import result_summary


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------
def test_facade_defaults(skewed_graph, source, oracle_config):
    result = repro.run(
        skewed_graph, "bfs", source=source, gum_config=oracle_config
    )
    assert result.engine == "gum"
    assert result.num_gpus == 8
    assert result.converged


def test_facade_symmetrizes_for_wcc(skewed_graph, oracle_config):
    result = repro.run(skewed_graph, "wcc", num_gpus=4,
                       gum_config=oracle_config)
    assert result.algorithm == "wcc"
    # component labels must be canonical (min id per component)
    assert result.values.min() == 0.0


@pytest.mark.parametrize(
    "engine", ["gunrock", "groute", "bsp", "gum-nosteal", "peeksteal"]
)
def test_facade_engines(engine, skewed_graph, source):
    """The facade and the CLI share one engine table."""
    result = repro.run(skewed_graph, "bfs", engine=engine,
                       num_gpus=4, source=source)
    assert result.converged
    assert result.engine == ("gum" if engine == "gum-nosteal" else engine)


def test_facade_partitioner_and_errors(skewed_graph, source,
                                       oracle_config):
    result = repro.run(
        skewed_graph, "bfs", partitioner="seg", num_gpus=2,
        source=source, gum_config=oracle_config,
    )
    assert result.converged
    with pytest.raises(EngineError, match="unknown engine"):
        repro.run(skewed_graph, "bfs", engine="spark", source=source)


def test_facade_engines_agree(skewed_graph, source, oracle_config):
    gum = repro.run(skewed_graph, "bfs", num_gpus=4, source=source,
                    gum_config=oracle_config)
    gunrock = repro.run(skewed_graph, "bfs", engine="gunrock",
                        num_gpus=4, source=source)
    assert np.allclose(gum.values, gunrock.values)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_datasets(capsys):
    assert main(["datasets", "--domain", "RN"]) == 0
    out = capsys.readouterr().out
    assert "TX" in out and "EU" in out
    assert "LJ" not in out


def test_cli_topology(capsys):
    assert main(["topology", "--gpus", "4"]) == 0
    out = capsys.readouterr().out
    assert "NVLink lanes" in out
    assert "ring" in out


def test_cli_run_text(capsys):
    code = main([
        "run", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gunrock", "--gpus", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "virtual time" in out
    assert "gunrock/bfs on TX" in out


def test_cli_run_json(capsys):
    code = main([
        "run", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gum", "--gpus", "4",
        "--cost-model", "oracle", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "gum"
    assert payload["converged"] is True
    assert payload["total_ms"] > 0
    assert set(payload["breakdown_ms"]) >= {"compute", "sync", "total"}


def test_cli_run_feature_switches(capsys):
    code = main([
        "run", "--graph", "TX", "--algorithm", "sssp",
        "--gpus", "4", "--cost-model", "oracle",
        "--no-fsteal", "--no-osteal", "--no-hub-cache", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stolen_edges"] == 0
    assert payload["min_group_size"] == 4


def test_cli_compare(capsys):
    code = main([
        "compare", "--graph", "TX", "--algorithm", "bfs",
        "--gpus", "4", "--cost-model", "oracle",
    ])
    assert code == 0
    out = capsys.readouterr().out
    for engine in ("gum", "gunrock", "groute"):
        assert engine in out
    assert "best" in out


def test_cli_rejects_unknown_graph():
    with pytest.raises(SystemExit):
        main(["run", "--graph", "NOPE", "--algorithm", "bfs"])


def test_result_summary_fields(skewed_graph, source, oracle_config):
    result = repro.run(skewed_graph, "bfs", num_gpus=4, source=source,
                       gum_config=oracle_config)
    summary = result_summary(result)
    assert summary["num_gpus"] == 4
    assert 0 <= summary["stall_fraction"] <= 1
    json.dumps(summary)  # must be JSON-serializable
    # original keys stay stable for downstream consumers
    assert {"engine", "algorithm", "graph", "num_gpus", "total_ms",
            "iterations", "converged", "stall_fraction", "breakdown_ms",
            "stolen_edges", "min_group_size",
            "real_decision_ms"} <= set(summary)
    # observability additions
    assert summary["fsteal_iterations"] == sum(
        1 for r in result.iterations if r.fsteal_applied
    )
    assert 1 <= summary["mean_group_size"] <= 4
    assert len(summary["per_gpu_utilization"]) == 4
    assert all(0.0 <= u <= 1.0 for u in summary["per_gpu_utilization"])


def test_cli_run_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "run.trace.json"
    code = main([
        "run", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gum", "--gpus", "2", "--cost-model", "oracle",
        "--trace", str(trace), "--metrics", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "engine.iterations" in payload["metrics"]
    data = json.load(open(trace))
    assert any(e["name"] == "superstep" for e in data["traceEvents"])


def test_cli_run_trace_jsonl(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    code = main([
        "run", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gunrock", "--gpus", "2",
        "--trace", str(trace),
    ])
    assert code == 0
    lines = [json.loads(line)
             for line in trace.read_text().splitlines()]
    assert lines[0]["format"] == "repro-trace"
    assert any(line.get("name") == "superstep" for line in lines[1:])


def test_cli_profile(tmp_path, capsys):
    out = tmp_path / "p.trace.json"
    jsonl = tmp_path / "p.jsonl"
    code = main([
        "profile", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gum", "--gpus", "4", "--cost-model", "oracle",
        "--out", str(out), "--jsonl", str(jsonl), "--timeline",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "chrome trace" in text
    assert "gpu0" in text  # the --timeline Gantt
    data = json.load(open(out))
    names = {e["name"] for e in data["traceEvents"]}
    assert "superstep" in names and "run" in names
    assert jsonl.exists()


def test_cli_profile_json(tmp_path, capsys):
    out = tmp_path / "p.trace.json"
    code = main([
        "profile", "--graph", "TX", "--algorithm", "bfs",
        "--gpus", "2", "--cost-model", "oracle",
        "--out", str(out), "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"] == str(out)
    assert "engine.iterations" in payload["metrics"]
    assert "fsteal_iterations" in payload


def test_cli_compare_writes_per_engine_traces(tmp_path, capsys):
    trace = tmp_path / "cmp.trace.json"
    code = main([
        "compare", "--graph", "TX", "--algorithm", "bfs",
        "--gpus", "2", "--cost-model", "oracle",
        "--trace", str(trace), "--json",
    ])
    assert code == 0
    json.loads(capsys.readouterr().out)
    for engine in ("gum", "gunrock", "groute"):
        per_engine = tmp_path / f"cmp.trace.{engine}.json"
        assert per_engine.exists()
        json.load(open(per_engine))


def _header_num_gpus(path):
    """``num_gpus`` as the artifact's own header states it."""
    text = path.read_text()
    if path.suffix == ".json":  # Chrome trace_event
        return json.loads(text)["otherData"]["num_gpus"]
    # repro-trace: the header is the first line
    return json.loads(text.splitlines()[0])["num_gpus"]


@pytest.mark.parametrize("argv, artifacts", [
    (["run", "--trace", "t.jsonl"], ["t.jsonl"]),
    (["profile", "--out", "t.json", "--jsonl", "t.jsonl"],
     ["t.json", "t.jsonl"]),
    (["compare", "--trace", "t.jsonl"],
     ["t.gum.jsonl", "t.gunrock.jsonl", "t.groute.jsonl"]),
], ids=["run", "profile", "compare"])
def test_cli_topology_sets_num_gpus_in_every_header(
    argv, artifacts, tmp_path, capsys, monkeypatch
):
    """``--topology nodes=2x2`` overrides the ``--gpus`` default of 8:
    the summary, every trace header and the recorded
    fingerprint all say 4."""
    monkeypatch.chdir(tmp_path)
    code = main(argv + [
        "--graph", "TX", "--algorithm", "bfs",
        "--topology", "nodes=2x2",
        "--json", "--record", "--runs-dir", "runs",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    summaries = payload.values() if argv[0] == "compare" else [payload]
    manifests = sorted((tmp_path / "runs").glob("*/manifest.json"))
    assert len(manifests) == len(summaries)
    stated = {
        "summary": [s["num_gpus"] for s in summaries],
        "headers": [_header_num_gpus(tmp_path / a) for a in artifacts],
        "fingerprints": [
            json.loads(m.read_text())["fingerprint"]["workload"]["num_gpus"]
            for m in manifests
        ],
    }
    assert {n for values in stated.values() for n in values} == {4}, stated


def test_parser_version():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--version"])
