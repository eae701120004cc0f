"""Thread-path gates: speedup floor and coordination budget.

The session's thread path (one task per virtual GPU) exists for
exactly one reason — wall-clock — and is only allowed to buy it
without touching anything else. This suite pins both sides of that
bargain, forcing each path through ``repro.backend.PARALLEL_MIN_EDGES``:

1. **speedup floor**: on a multi-core host (CI runners have >= 4
   vCPUs) the threaded superstep over the big generated graph must
   beat the serial superstep by ``SPEEDUP_FLOOR``. Both sides are
   measured in the same process on the same host, so the check
   transfers between machines. Hosts without enough cores skip (threads cannot
   beat a serial loop on one core).
2. **coordination budget**: the session's self-measured host overhead
   (task submission + result collection, from
   ``RunResult.backend_stats``) must stay a small per-task cost — the
   thread path parallelizes array crunching, not task juggling.

The ``backend.*`` cases also feed the calibrated ``baseline.json``
regression gate via the shared ``bench_report`` fixture.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.bench import perfharness
from repro.graph import datasets
from tests.backend.helpers import forced_path, no_backend_threads

SPEEDUP_FLOOR = 2.0
#: host seconds of coordination per dispatched task, amortized
COORDINATION_BUDGET_PER_TASK = 0.010
BEST_OF = 3


def _best_superstep_seconds(superstep) -> float:
    timing = perfharness.time_callable(
        superstep, repeats=BEST_OF, min_seconds=0.05
    )
    return timing.seconds


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="shmem speedup needs >= 4 cores for 4 worker threads",
)
def test_shmem_superstep_speedup():
    serial_session, serial_step = perfharness._backend_fixture("serial")
    try:
        serial_seconds = _best_superstep_seconds(serial_step)
    finally:
        serial_session.close()
    shmem_session, shmem_step = perfharness._backend_fixture("shmem")
    try:
        shmem_seconds = _best_superstep_seconds(shmem_step)
    finally:
        shmem_session.close()
    ratio = serial_seconds / shmem_seconds
    print(f"\nshmem superstep speedup: {ratio:.2f}x "
          f"(serial {serial_seconds * 1e3:.1f} ms, "
          f"shmem {shmem_seconds * 1e3:.1f} ms)")
    assert no_backend_threads()
    assert ratio >= SPEEDUP_FLOOR


def test_shmem_coordination_overhead_budget():
    """Dispatch+collect host seconds per task stay under budget.

    Collection *waits* for the threads, so the waited-on compute is
    part of the measurement only on an oversubscribed host; the
    per-task budget is sized for the steady state where dispatch and
    collect are bookkeeping. A full TX/bfs run (hundreds of
    supersteps) amortizes pool startup out of the picture.
    """
    graph = datasets.load("TX")
    with forced_path(True):
        result = repro.run(graph, "bfs", num_gpus=4, source=0)
    stats = result.backend_stats
    assert stats is not None and stats["tasks"] > 0
    per_task = (
        stats["dispatch_seconds"] + stats["collect_seconds"]
    ) / stats["tasks"]
    print(f"\ncoordination: {per_task * 1e6:.0f} us/task over "
          f"{stats['tasks']} tasks "
          f"(startup {stats['startup_seconds']:.2f} s)")
    assert no_backend_threads()
    assert per_task < COORDINATION_BUDGET_PER_TASK


def test_backend_cases_in_report(bench_report):
    """The backend.* family is measured and lands in the report."""
    names = set(bench_report["benchmarks"])
    assert "backend.serial.superstep.rmat16.4w" in names
    assert "backend.shmem.superstep.rmat16.4w" in names
