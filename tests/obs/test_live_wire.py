"""The live stream's wire content, checked against a committed record.

``tests/obs/live_wire.json`` was generated at the commit *before*
:class:`~repro.obs.live.StreamingSink` lost its writer thread, from a
healthy and a chaos TX/bfs@4 run streamed with ``--stream-every 10``;
its ``metrics`` lines were regenerated when the registry dropped its
per-superstep ``timeseries`` instruments, and its final ``metrics``
lines when the run envelope added ``engine.minor_faults`` (every other
line unchanged).
Each entry is one wire line, in order: its envelope kind, its span
name, and a digest of everything else on the line — track, record
kind, category, depth, virtual clock fields, attributes, and every
snapshot key and value — so a change to what the stream carries, or
to the order it carries it in, fails here. Host-clock content is
masked before digesting: ``wall_start`` / ``wall_dur`` of host-timed
spans, and the instruments that observe the host (their ``type`` and,
for a histogram, ``count`` stay).

An intended change to the wire regenerates the record::

    PYTHONPATH=src python tests/obs/test_live_wire.py > tests/obs/live_wire.json
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from repro.cli import main
from repro.obs.live import read_stream_events

RECORD = pathlib.Path(__file__).with_name("live_wire.json")
ROOT = pathlib.Path(__file__).resolve().parents[2]

RUNS = {
    "healthy": [],
    "kill-worker": [
        "--chaos", str(ROOT / "benchmarks/scenarios/kill-worker.json"),
    ],
}

#: instruments fed from the host (``time.perf_counter``, the process's
#: page-fault count) — different every run
HOST_CLOCK_INSTRUMENTS = frozenset({
    "engine.minor_faults",
    "fsteal.solve_seconds",
    "osteal.solve_seconds",
    "scheduler.decision_seconds",
})


def _masked(event: dict) -> dict:
    event = {key: value for key, value in event.items()
             if key not in ("wall_start", "wall_dur")}
    if "snapshot" in event:
        event["snapshot"] = {
            name: ({key: instrument[key] for key in ("type", "count")
                    if key in instrument}
                   if name in HOST_CLOCK_INSTRUMENTS else instrument)
            for name, instrument in event["snapshot"].items()
        }
    return event


def wire_lines(extra_args, workdir) -> list:
    """``"<event> <name> <digest>"`` per line of one streamed run."""
    path = pathlib.Path(workdir) / "run.live"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "run", "--graph", "TX", "--algorithm", "bfs",
            "--engine", "gum", "--gpus", "4", "--cost-model", "oracle",
            "--stream", str(path), "--stream-every", "10", *extra_args,
        ])
    assert code == 0
    lines = []
    for event in read_stream_events(path):
        masked = _masked(event)
        digest = hashlib.sha256(
            json.dumps(masked, sort_keys=True).encode()
        ).hexdigest()[:16]
        lines.append(f"{event.get('event', 'header')} "
                     f"{event.get('name', '-')} {digest}")
    return lines


@pytest.mark.parametrize("run", sorted(RUNS))
def test_stream_matches_the_committed_wire_record(run, tmp_path):
    expected = json.loads(RECORD.read_text())[run]
    actual = wire_lines(RUNS[run], tmp_path)
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, f"wire line {index} of the {run} run"
    assert len(actual) == len(expected)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps(
            {run: wire_lines(args, scratch) for run, args in RUNS.items()},
            indent=1,
        ))
