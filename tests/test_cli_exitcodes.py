"""Exit-code contract: every subcommand turns ReproError into 2.

``main()`` promises that bad *inputs* (missing files, unknown refs,
malformed artifacts) exit with code 2 and a single ``error:`` line on
stderr — never a traceback, and never the gate codes 0/1 that CI
scripts branch on. Each case below forces a ReproError through a
different subcommand's code path.
"""

import gc
import json
import shutil
import warnings
from pathlib import Path

import pytest

from repro.cli import main

REFERENCE_RUN = str(
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "reference" / "tx-bfs-4gpu"
)


def _file(path, text):
    """Write a malformed input file; returns its path as an argv word."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


#: not UTF-8, not JSON: what a mis-pasted ``.npz`` or ``.gz`` looks like
BINARY = b"\x93NUMPY\xff\xfe\x00\x80"


def _binary(path):
    """Write a binary file where a text input is expected."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(BINARY)
    return str(path)


def _run_dir_with_binary_trace(path):
    """A run directory whose manifest is fine but whose trace is not."""
    _file(path / "manifest.json", "{}")
    _binary(path / "trace.jsonl")
    return str(path)


def _run_dir_with(path, edit_ledger=None, edit_trace_record=None,
                  edit_workload=None):
    """A copy of the reference run with one JSON value damaged.

    ``edit_ledger`` mutates the parsed ``ledger.json``;
    ``edit_trace_record`` the first superstep record of ``trace.jsonl``;
    ``edit_workload`` the manifest's workload fingerprint.
    """
    shutil.copytree(REFERENCE_RUN, path)
    if edit_workload is not None:
        manifest = json.loads((path / "manifest.json").read_text())
        edit_workload(manifest["fingerprint"]["workload"])
        (path / "manifest.json").write_text(json.dumps(manifest))
    if edit_ledger is not None:
        ledger = json.loads((path / "ledger.json").read_text())
        edit_ledger(ledger)
        (path / "ledger.json").write_text(json.dumps(ledger))
    if edit_trace_record is not None:
        lines = (path / "trace.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        edit_trace_record(record)
        lines[1] = json.dumps(record)
        (path / "trace.jsonl").write_text("\n".join(lines) + "\n")
    return str(path)


#: hand-damaged ``ledger.json`` shapes, each a traceback before
#: ``Ledger.from_dict`` validated entries and samples
BAD_LEDGERS = {
    "entries-not-objects": lambda led: led.update(entries=[1]),
    "entry-without-iteration":
        lambda led: led["entries"][0].pop("iteration"),
    "samples-null": lambda led: led["entries"][0].update(samples=None),
    "sample-without-actual":
        lambda led: led["entries"][0]["samples"][0].pop("actual"),
}


def _bad_busy(record):
    record["busy_ms"] = "oops"


def _bench_against(baseline):
    return [
        "bench", "--filter", "assembly.dense", "--repeats", "1",
        "--out", str(Path(baseline).with_name("bench.json")),
        "--baseline", baseline,
    ]


def _tx_bfs(*verb_and_flags):
    return [*verb_and_flags,
            "--graph", "TX", "--algorithm", "bfs", "--gpus", "2"]


# each entry: (id, argv builder taking the tmp registry dir)
CASES = [
    ("run-chaos-missing", lambda d: [
        "run", "--graph", "TX", "--algorithm", "bfs", "--gpus", "2",
        "--chaos", str(d / "absent-scenario.json"),
    ]),
    ("run-chaos-binary", lambda d: [
        "run", "--graph", "TX", "--algorithm", "bfs", "--gpus", "2",
        "--chaos", _binary(d / "scenario.json"),
    ]),
    ("compare-chaos-missing", lambda d: [
        "compare", "--graph", "TX", "--algorithm", "bfs", "--gpus", "2",
        "--chaos", str(d / "absent-scenario.json"),
    ]),
    ("profile-chaos-missing", lambda d: [
        "profile", "--graph", "TX", "--algorithm", "bfs", "--gpus", "2",
        "--out", str(d / "trace.json"),
        "--chaos", str(d / "absent-scenario.json"),
    ]),
    ("run-cost-model-missing", lambda d: _tx_bfs(
        "run", "--cost-model", str(d / "model.jsno"),
    )),
    ("run-cost-model-directory", lambda d: _tx_bfs(
        "run", "--cost-model", str(d),
    )),
    ("run-cost-model-unknown-name", lambda d: _tx_bfs(
        "run", "--cost-model", "magic",
    )),
    ("profile-cost-model-missing", lambda d: _tx_bfs(
        "profile", "--out", str(d / "trace.json"),
        "--cost-model", str(d / "model.jsno"),
    )),
    ("runs-record-cost-model-missing", lambda d: _tx_bfs(
        "runs", "record", "--runs-dir", str(d),
        "--cost-model", str(d / "model.jsno"),
    )),
    ("replay-cost-model-missing", lambda d: [
        "replay", REFERENCE_RUN, "--runs-dir", str(d),
        "--cost-model", str(d / "model.jsno"),
    ]),
    ("bench-filter-matches-nothing", lambda d: [
        "bench", "--filter", "zzz-no-such-case",
        "--out", str(d / "bench.json"), "--no-compare",
    ]),
    ("bench-baseline-truncated", lambda d: _bench_against(
        _file(d / "base.json", '{"schema": "repro-bench/1", "benchm')
    )),
    ("bench-baseline-not-an-object", lambda d: _bench_against(
        _file(d / "base.json", "[]")
    )),
    ("bench-baseline-without-benchmarks", lambda d: _bench_against(
        _file(d / "base.json", '{"schema": "repro-bench/1"}')
    )),
    ("runs-record-chaos-missing", lambda d: [
        "runs", "record", "--graph", "TX", "--algorithm", "bfs",
        "--gpus", "2", "--runs-dir", str(d),
        "--chaos", str(d / "absent-scenario.json"),
    ]),
    ("runs-show-unknown-ref", lambda d: [
        "runs", "show", "zzz-unknown", "--runs-dir", str(d),
    ]),
    ("runs-show-manifest-not-an-object", lambda d: [
        "runs", "show", _file(d / "run" / "manifest.json", "[]"),
        "--runs-dir", str(d),
    ]),
    ("runs-analyze-unknown-ref", lambda d: [
        "runs", "analyze", "zzz-unknown", "--runs-dir", str(d),
    ]),
    ("runs-analyze-binary-trace", lambda d: [
        "runs", "analyze", _run_dir_with_binary_trace(d / "run"),
        "--runs-dir", str(d),
    ]),
    ("runs-diff-unknown-refs", lambda d: [
        "runs", "diff", "zzz-base", "zzz-current",
        "--runs-dir", str(d),
    ]),
    ("runs-gc-negative-keep", lambda d: [
        "runs", "gc", "--keep", "-1", "--runs-dir", str(d),
    ]),
    *[
        (f"{verb}-ledger-{name}", lambda d, verb=verb, edit=edit: [
            verb, _run_dir_with(d / "run", edit_ledger=edit),
            "--runs-dir", str(d),
        ])
        for name, edit in BAD_LEDGERS.items()
        for verb in ("explain", "replay")
    ],
    ("runs-analyze-malformed-busy", lambda d: [
        "runs", "analyze",
        _run_dir_with(d / "run", edit_trace_record=_bad_busy),
        "--runs-dir", str(d),
    ]),
    ("replay-malformed-busy", lambda d: [
        "replay", _run_dir_with(d / "run", edit_trace_record=_bad_busy),
        "--runs-dir", str(d),
    ]),
    # fingerprint fields a re-execution cannot honour
    ("replay-reexecute-chaos-recording", lambda d: [
        "replay", _run_dir_with(
            d / "run", edit_workload=lambda w: w.update(chaos="slow-worker")
        ),
        "--cost-model", "default", "--runs-dir", str(d),
    ]),
    ("replay-reexecute-artifact-label-topology-only", lambda d: [
        "replay", _run_dir_with(
            d / "run",
            edit_workload=lambda w: w.update(
                cost_model="artifact:tree@0123abcd"),
        ),
        "--topology", "dgx1", "--runs-dir", str(d),
    ]),
    ("replay-reexecute-gpu-count-mismatch", lambda d: [
        "replay", REFERENCE_RUN, "--topology", "nodes=2x4",
        "--runs-dir", str(d),
    ]),
    ("explain-iteration-miss", lambda d: [
        "explain", REFERENCE_RUN, "--iteration", "9999",
        "--runs-dir", str(d),
    ]),
    ("explain-iteration-miss-json", lambda d: [
        "explain", REFERENCE_RUN, "--iteration", "9999", "--json",
        "--runs-dir", str(d),
    ]),
]


def _the_one_error_line(capsys):
    """The single ``error:`` line a failed verb prints; no traceback."""
    err = capsys.readouterr().err
    error_lines = [
        line for line in err.splitlines() if line.startswith("error: ")
    ]
    assert len(error_lines) == 1
    assert "Traceback" not in err
    return error_lines[0]


@pytest.mark.parametrize(
    "argv_for", [c[1] for c in CASES], ids=[c[0] for c in CASES]
)
def test_bad_input_exits_2_with_one_line_error(
    argv_for, tmp_path, capsys
):
    assert main(argv_for(tmp_path)) == 2
    _the_one_error_line(capsys)


def test_explain_iteration_miss_is_one_message(capsys):
    """Text and ``--json`` share one lookup, so one miss message."""
    messages = []
    for flags in ([], ["--json"]):
        assert main(["explain", REFERENCE_RUN,
                     "--iteration", "9999", *flags]) == 2
        messages.append(_the_one_error_line(capsys))
    assert messages[0] == messages[1]
    assert messages[0].startswith(
        "error: no ledger entry for iteration 9999 (run has "
    )


#: every backend of the fallback chain times out: the run raises
SOLVER_EXHAUSTED = str(
    Path(REFERENCE_RUN).parents[1] / "scenarios" / "solver-exhausted.json"
)


@pytest.mark.parametrize("argv, chrome, jsonl", [
    (["run", "--trace", "f.json"], "f.json", None),
    (["run", "--trace", "f.jsonl"], None, "f.jsonl"),
    (["profile", "--out", "p.json"], "p.json", None),
    (["compare", "--trace", "c.json"], "c.gum.json", None),
], ids=["run-chrome", "run-jsonl", "profile", "compare"])
def test_failed_run_still_closes_its_sinks(
    argv, chrome, jsonl, tmp_path, capsys, monkeypatch
):
    """A run that raises exits 2 with its one line *and* leaves the
    trace written and nothing recorded."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = main(argv + [
            "--graph", "TX", "--algorithm", "bfs", "--gpus", "4",
            "--chaos", SOLVER_EXHAUSTED,
            "--record", "--runs-dir", "runs",
        ])
        gc.collect()  # an unclosed file warns when it is collected
    assert code == 2
    assert _the_one_error_line(capsys).startswith(
        "error: all solver backends failed"
    )
    assert not (tmp_path / "runs").exists()
    assert not [w for w in caught if w.category is ResourceWarning]
    if chrome:
        events = json.loads((tmp_path / chrome).read_text())["traceEvents"]
        names = [event["name"] for event in events]
        assert "run" in names and "chaos.solver_timeout" in names
    if jsonl:
        records = [json.loads(line) for line
                   in (tmp_path / jsonl).read_text().splitlines()]
        assert records[0]["format"] == "repro-trace"
        assert records[-1]["name"] == "run"


def test_missing_cost_model_is_one_error_on_every_verb(tmp_path, capsys):
    """``run`` and ``replay`` resolve ``--cost-model`` the same way."""
    missing = str(tmp_path / "model.jsno")
    messages = []
    for argv in (
        _tx_bfs("run", "--cost-model", missing),
        ["replay", REFERENCE_RUN, "--cost-model", missing],
    ):
        assert main(argv) == 2
        messages.append(capsys.readouterr().err.strip())
    assert messages[0] == messages[1]
    assert "cannot read cost-model artifact" in messages[0]
    assert "No such file" in messages[0]
    assert main(_tx_bfs("run", "--cost-model", "magic")) == 2
    assert "expected 'default', 'oracle'" in capsys.readouterr().err


def test_gate_exit_codes_stay_distinct(tmp_path):
    """runs diff reserves 1 for 'regressed', 2 for 'bad input'.

    A missing base manifest must therefore exit 2, not 1 — this is
    what lets CI distinguish "perf regressed" from "the script is
    broken".
    """
    rc = main(["runs", "diff", "zzz-a", "zzz-b",
               "--runs-dir", str(tmp_path)])
    assert rc == 2
