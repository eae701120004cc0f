"""Whole-run behaviour, checked against a committed record.

``tests/behaviour_golden.json`` holds one line per cell of a fixed
run matrix: every registered algorithm under the serial and the shmem
backend, on the ``gum``, ``bsp`` and ``gunrock`` engines, on TX at 4
GPUs and CF at 8; ``groute`` (serial only); the ``kill-worker``
scenario; the ``nodes=2x2`` topology; a sharded graph behind a
one-shard cache; and GUM with decision amortization off. Each cell
records the run's ``repr(total_ms)``, its iteration count, a digest
of every iteration's ``repr(wall_seconds)``, a digest of the final
vertex values, and, for GUM, a digest of the decision ledger as
``ledger.json`` stores it. Every field is virtual time or a computed
value, so the record is the same on every host.

Tier-1 replays :data:`SAMPLE`; the whole matrix replays with::

    PYTHONPATH=src python tests/test_behaviour_golden.py --all

which prints only the cells that differ (exit 1 if any). An intended
change to behaviour regenerates the record, and its diff is the
explanation::

    PYTHONPATH=src python tests/test_behaviour_golden.py > tests/behaviour_golden.json
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

RECORD = pathlib.Path(__file__).with_name("behaviour_golden.json")
ROOT = pathlib.Path(__file__).resolve().parents[1]
KILL_WORKER = ROOT / "benchmarks" / "scenarios" / "kill-worker.json"

ALGORITHMS = ("bfs", "sssp", "wcc", "dsssp", "kcore", "pr", "dpr")
BACKENDS = ("serial", "shmem")
MACHINES = (("TX", 4), ("CF", 8))
#: k = 3 peels TX over 22 supersteps (the default k = 2 peels it in one)
PARAMS = {"kcore": {"k": 3}}


def _cells() -> dict:
    """Cell name → run keywords, in record order."""
    cells = {}

    def add(graph, gpus, algorithm, engine="gum", backend="serial",
            variant=None, **extra):
        name = f"{graph}@{gpus} {algorithm} {engine} {backend}"
        if variant:
            name += f" {variant}"
        cells[name] = dict(graph=graph, num_gpus=gpus, algorithm=algorithm,
                           engine=engine, backend=backend, **extra,
                           **PARAMS.get(algorithm, {}))

    for graph, gpus in MACHINES:
        for algorithm in ALGORITHMS:
            for engine in ("gum", "bsp", "gunrock"):
                for backend in BACKENDS:
                    add(graph, gpus, algorithm, engine, backend)
            add(graph, gpus, algorithm, "groute")
    for algorithm in ALGORITHMS:
        for backend in BACKENDS:
            add("TX", 4, algorithm, backend=backend, variant="kill-worker",
                chaos=True)
            add("TX", 4, algorithm, backend=backend, variant="nodes=2x2",
                topology="nodes=2x2")
            add("TX-sharded", 4, algorithm, backend=backend)
        add("TX", 4, algorithm, variant="no-amortize", amortize=False)
    return cells


CELLS = _cells()

#: the cells tier-1 replays: every axis at least once, on TX
SAMPLE = (
    "TX@4 bfs gum shmem",
    "TX@4 sssp bsp shmem",
    "TX@4 wcc gunrock shmem",
    "TX@4 dsssp gum shmem",
    "TX@4 kcore bsp shmem",
    "TX@4 pr gum shmem",
    "TX@4 dpr gunrock serial",
    "TX@4 sssp groute serial",
    "TX@4 bfs gum shmem kill-worker",
    "TX@4 wcc gum shmem nodes=2x2",
    "TX-sharded@4 sssp gum shmem",
    "TX-sharded@4 pr gum serial",
    "TX@4 sssp gum serial no-amortize",
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _load_graph(name: str, shard_root: pathlib.Path):
    """A named dataset, or TX saved as shards behind a one-shard
    cache (a budget of one byte evicts before every load)."""
    from repro.graph import datasets, open_graph_sharded, save_graph_sharded

    if name != "TX-sharded":
        return datasets.load(name)
    path = shard_root / "TX.shards"
    if not path.exists():
        save_graph_sharded(datasets.load("TX"), path, num_shards=4)
    return open_graph_sharded(path, resident_bytes=1)


def run_cell(name: str, shard_root: pathlib.Path) -> dict:
    """One cell's record entry, from a fresh run."""
    import repro
    from repro.chaos import ChaosController, ChaosScenario
    from repro.core.arbitrator import GumConfig

    spec = dict(CELLS[name])
    graph = _load_graph(spec.pop("graph"), shard_root)
    if spec.pop("chaos", False):
        spec["chaos"] = ChaosController(ChaosScenario.from_file(KILL_WORKER))
    if not spec.pop("amortize", True):
        spec["gum_config"] = GumConfig(amortize=False)
    result = repro.run(graph, **spec)
    walls = "\n".join(repr(record.wall_seconds)
                      for record in result.iterations)
    values = np.ascontiguousarray(result.values)
    entry = {
        "total_ms": repr(result.total_ms),
        "iterations": result.num_iterations,
        "walls": _digest(walls.encode()),
        "values": _digest(str(values.dtype).encode() + values.tobytes()),
    }
    if result.ledger is not None:
        ledger = json.dumps(result.ledger.as_dict(), indent=2,
                            sort_keys=True) + "\n"
        entry["ledger"] = _digest(ledger.encode())
    return entry


def load_record() -> dict:
    return json.loads(RECORD.read_text())


def render(record: dict) -> str:
    """The record file: a JSON object with one cell per line."""
    lines = [f" {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
             for name, entry in record.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def shard_root(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


def test_the_record_covers_exactly_the_matrix():
    assert list(load_record()) == list(CELLS)
    assert set(SAMPLE) <= set(CELLS)


@pytest.mark.parametrize("name", SAMPLE)
def test_cell_matches_the_committed_record(name, shard_root):
    assert run_cell(name, shard_root) == load_record()[name]


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        if argv != ["--all"]:
            sys.stdout.write(render(
                {name: run_cell(name, root) for name in CELLS}
            ))
            return 0
        record, differ = load_record(), 0
        for name in CELLS:
            actual = run_cell(name, root)
            if actual != record.get(name):
                differ += 1
                print(f"{name}: expected {record.get(name)}, got {actual}")
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
