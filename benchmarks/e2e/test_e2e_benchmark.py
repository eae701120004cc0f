"""The e2e benchmark's report agrees with ``BENCHMARK.json``.

Runs ``run.py --smoke`` once (about a minute: one timed pass and the
traced passes of every workload), so it lives outside tier-1's
``testpaths``::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_benchmark.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    report, trace = out / "report.json", out / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--out", str(report), "--trace-out", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return {
        "report": json.loads(report.read_text()),
        "trace": json.loads(trace.read_text()),
        "stdout": proc.stdout,
    }


def test_benchmark_json_is_within_the_contract(declared):
    assert set(declared) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    bounds = {entry["name"]: entry["bound"]
              for entry in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_report_and_benchmark_json_name_the_same_things(declared, smoke):
    report = smoke["report"]
    assert list(report["workloads"]) == [
        entry["name"] for entry in declared["workloads"]
    ]
    e2e = {entry["name"] for entry in declared["end_to_end"]}
    layers = {entry["name"] for entry in declared["per_layer"]}
    for name, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) == e2e, name
        assert set(entry["per_layer"]) == layers, name
        # the exact metrics: two are layer metrics of BENCHMARK.json,
        # the other two are the result line's attempted/failed
        assert set(entry["exact"]) - layers == {"ops", "failed_ops"}, name
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert re.search(
            rf"^\s+{re.escape(entry['name'])}\s+\S+\s+"
            rf"{re.escape(entry['unit'])}(?=\s|$)",
            smoke["stdout"], re.MULTILINE,
        ), f"{entry['name']} not printed with its unit"


def test_no_op_failed_and_every_workload_measured(smoke):
    for name, entry in smoke["report"]["workloads"].items():
        assert entry["exact"]["failed_ops"] == 0, entry["failures"]
        assert entry["exact"]["ops"] >= 1, name
        assert entry["exact"]["virtual_speedup_x"] > 0, name
        assert all(stat["value"] > 0
                   for stat in entry["end_to_end"].values()), name


def test_layer_selves_sum_to_the_op_wall(smoke):
    events = [event for event in smoke["trace"]["traceEvents"]
              if event["ph"] == "X"]
    by_id = {(e["tid"], e["args"]["id"]): e for e in events}
    selves = {key: event["dur"] for key, event in by_id.items()}
    for (tid, __), event in by_id.items():
        parent = event["args"]["parent"]
        if parent >= 0:
            selves[(tid, parent)] -= event["dur"]

    def root(key):
        while by_id[key]["args"]["parent"] >= 0:
            key = (key[0], by_id[key]["args"]["parent"])
        return key

    sums = {}
    for key, self_time in selves.items():
        sums[root(key)] = sums.get(root(key), 0.0) + self_time
    assert len(sums) >= 7 + 2 * 4 + 2 * 9 + 4  # ops of the traced passes
    for key, total in sums.items():
        assert total == pytest.approx(by_id[key]["dur"], rel=0.01), key


def test_layers_run_where_the_readme_says(smoke):
    layers = {name: entry["per_layer"]
              for name, entry in smoke["report"]["workloads"].items()}
    for name, values in layers.items():
        only_here = name == "record-replay"
        for metric in ("obs.close_s", "runs.record_s", "replay.replay_s"):
            assert (values[metric] > 0) == only_here, (name, metric)
        assert (values["cli.import_s"] > 0) == (name == "cold-cli")
    road, dense = layers["tail-road"], layers["dense-social"]
    assert road["core.plan_s"] > road["runtime.self_s"] > \
        road["algorithms.step_s"]
    assert dense["runtime.self_s"] + dense["algorithms.step_s"] > \
        4 * dense["core.plan_s"]
