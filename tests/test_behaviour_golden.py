"""Whole-run behaviour, checked against a committed record.

``tests/behaviour_golden.json`` holds one line per cell of a fixed
run matrix: every registered algorithm on the ``gum``, ``bsp`` and
``gunrock`` engines, on TX at 4 GPUs and CF at 8; ``groute``; the
``kill-worker`` scenario; the ``nodes=2x2`` topology; and GUM with
decision amortization off.
Cells run under the session's own per-superstep rule; a ``threads``
cell forces every superstep of a min-propagation algorithm onto the
thread path (``repro.backend.PARALLEL_MIN_EDGES`` = 0) and must record
exactly what its unforced twin records. Each cell
records the run's ``repr(total_ms)``, its iteration count, a digest
of every iteration's ``repr(wall_seconds)``, a digest of the final
vertex values, and, for GUM, a digest of the decision ledger as
``ledger.json`` stores it. Every field is virtual time or a computed
value, and the ground truth and the learned prediction use neither a
CPU-dispatched NumPy transcendental nor BLAS, so the record is the
same on every host (CI replays it at NumPy's baseline SIMD dispatch
too).

Tier-1 replays :data:`SAMPLE`; the whole matrix replays with::

    PYTHONPATH=src python tests/test_behaviour_golden.py --all

which prints only the cells that differ (exit 1 if any). An intended
change to behaviour regenerates the record, and its diff is the
explanation::

    PYTHONPATH=src python tests/test_behaviour_golden.py > tests/behaviour_golden.json
"""

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
RECORD = HERE / "behaviour_golden.json"
ROOT = HERE.parent
KILL_WORKER = ROOT / "benchmarks" / "scenarios" / "kill-worker.json"

ALGORITHMS = ("bfs", "sssp", "wcc", "dsssp", "kcore", "pr", "dpr")
#: the min-propagation algorithms, whose supersteps may thread
THREADED = ("bfs", "sssp", "wcc")
MACHINES = (("TX", 4), ("CF", 8))
#: k = 3 peels TX over 22 supersteps (the default k = 2 peels it in one)
PARAMS = {"kcore": {"k": 3}}


def _cells() -> dict:
    """Cell name → run keywords, in record order."""
    cells = {}

    def add(graph, gpus, algorithm, engine="gum", variant=None,
            threads=False, **extra):
        name = f"{graph}@{gpus} {algorithm} {engine}"
        if variant:
            name += f" {variant}"
        if threads:
            name += " threads"
            extra["threads"] = True
        cells[name] = dict(graph=graph, num_gpus=gpus, algorithm=algorithm,
                           engine=engine, **extra,
                           **PARAMS.get(algorithm, {}))

    def forced(algorithm):
        return (False, True) if algorithm in THREADED else (False,)

    for graph, gpus in MACHINES:
        for algorithm in ALGORITHMS:
            for engine in ("gum", "bsp", "gunrock"):
                for threads in forced(algorithm):
                    add(graph, gpus, algorithm, engine, threads=threads)
            add(graph, gpus, algorithm, "groute")
    for algorithm in ALGORITHMS:
        add("TX", 4, algorithm, variant="kill-worker", chaos=True)
        add("TX", 4, algorithm, variant="nodes=2x2", topology="nodes=2x2")
        if algorithm in THREADED:
            add("TX", 4, algorithm, variant="kill-worker", threads=True,
                chaos=True)
            add("TX", 4, algorithm, variant="nodes=2x2", threads=True,
                topology="nodes=2x2")
        add("TX", 4, algorithm, variant="no-amortize", amortize=False)
    return cells


CELLS = _cells()

#: the cells tier-1 replays: every axis at least once, on TX, and
#: PageRank's dense rounds on CF
SAMPLE = (
    "TX@4 bfs gum threads",
    "TX@4 sssp bsp threads",
    "TX@4 wcc gunrock threads",
    "TX@4 dsssp gum",
    "TX@4 kcore bsp",
    "TX@4 pr gum",
    "TX@4 dpr gunrock",
    "TX@4 sssp groute",
    "TX@4 bfs gum kill-worker threads",
    "TX@4 wcc gum nodes=2x2 threads",
    "TX@4 sssp gum",
    "CF@8 pr gum",
    "TX@4 sssp gum no-amortize",
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_cell(name: str) -> dict:
    """One cell's record entry, from a fresh run."""
    import repro
    import repro.backend
    from repro.chaos import ChaosController, ChaosScenario
    from repro.core.arbitrator import GumConfig
    from repro.graph import datasets

    spec = dict(CELLS[name])
    graph = datasets.load(spec.pop("graph"))
    if spec.pop("chaos", False):
        spec["chaos"] = ChaosController(ChaosScenario.from_file(KILL_WORKER))
    if not spec.pop("amortize", True):
        spec["gum_config"] = GumConfig(amortize=False)
    threads = spec.pop("threads", False)
    saved = repro.backend.PARALLEL_MIN_EDGES
    if threads:
        repro.backend.PARALLEL_MIN_EDGES = 0
    try:
        result = repro.run(graph, **spec)
    finally:
        repro.backend.PARALLEL_MIN_EDGES = saved
    if threads:  # the forced path really ran every superstep
        stats = result.backend_stats or {}
        assert stats.get("threaded_steps") == result.num_iterations, name
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


def test_the_record_covers_exactly_the_matrix():
    assert list(load_record()) == list(CELLS)
    assert set(SAMPLE) <= set(CELLS)


@pytest.mark.parametrize("name", SAMPLE)
def test_cell_matches_the_committed_record(name):
    assert run_cell(name) == load_record()[name]


#: NumPy dispatches to its baseline SIMD level with these disabled
#: (none is a baseline feature of any x86-64 build)
BASELINE_DISPATCH = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the dispatch features named are x86-64's")
def test_a_virtual_time_cell_holds_at_baseline_simd_dispatch():
    """CF@8 dpr bsp prices its walls through every transcendental of
    the ground truth; a fresh interpreter at NumPy's baseline dispatch
    must record what the committed (default-dispatch) record holds."""
    name = "CF@8 dpr bsp"
    code = (f"import json, sys; sys.path.insert(0, {str(HERE)!r}); "
            "import test_behaviour_golden as golden; "
            f"print(json.dumps(golden.run_cell({name!r})))")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_DISPATCH,
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == load_record()[name]


def main(argv) -> int:
    if argv != ["--all"]:
        sys.stdout.write(render({name: run_cell(name) for name in CELLS}))
        return 0
    record, differ = load_record(), 0
    for name in CELLS:
        actual = run_cell(name)
        if actual != record.get(name):
            differ += 1
            print(f"{name}: expected {record.get(name)}, got {actual}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
