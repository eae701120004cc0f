"""Graph construction peaks at a small multiple of the graph it returns.

Every named dataset is measured as built and as
:func:`~repro.bench.workloads.prepare_graph` prepares it for ``bfs``,
``sssp``, ``wcc`` and ``pr``: the peak of the allocations ``tracemalloc``
traces during the call, over the bytes of the result's ``indptr``,
``indices`` and ``weights``. The ratio depends on the builders alone,
not on the host, and holds at any ``REPRO_SCALE``; CI also runs this
module at ``REPRO_SCALE=4``::

    REPRO_SCALE=4 PYTHONPATH=src python -m pytest tests/graph/test_construction_memory.py
"""

import tracemalloc

import pytest

from repro.bench.workloads import prepare_graph
from repro.graph import datasets

#: The largest peak, in multiples of the returned CSR's bytes.
MAX_PEAK_OVER_CSR = 7

ALGORITHMS = ("bfs", "sssp", "wcc", "pr")


def _csr_bytes(graph) -> int:
    weights = graph.weights
    return (graph.indptr.nbytes + graph.indices.nbytes
            + (0 if weights is None else weights.nbytes))


def _built_with_peak(build):
    """``build()`` and the peak bytes it allocated on top of the heap."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        graph = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return graph, peak


@pytest.mark.parametrize("abbr", datasets.dataset_names())
def test_construction_peak_is_a_small_multiple_of_the_csr(abbr):
    graph, peak = _built_with_peak(datasets.DATASETS[abbr].build)
    assert peak <= MAX_PEAK_OVER_CSR * _csr_bytes(graph), (abbr, peak)
    datasets.load(abbr)  # the base graph, outside the measurement
    for algorithm in ALGORITHMS:
        prepared, peak = _built_with_peak(
            lambda: prepare_graph.__wrapped__(abbr, algorithm)
        )
        assert peak <= MAX_PEAK_OVER_CSR * _csr_bytes(prepared), (
            f"{abbr}/{algorithm}", peak)
