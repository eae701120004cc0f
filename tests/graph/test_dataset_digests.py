"""Every named dataset's CSR arrays, checked against a committed record.

``tests/graph/dataset_digests.txt`` was generated at the commit before
graph construction moved from ``np.lexsort`` to one sort of the fused
``src * num_vertices + dst`` key, with generators dropping self-loops
and duplicates before their single CSR build. It holds one line per
graph: a label (the dataset as built, or ``<abbr>/<algorithm>`` as
:func:`~repro.bench.workloads.prepare_graph` prepares it for ``bfs``,
``sssp``, ``wcc`` and ``pr``), ``directed``, the vertex and edge
counts, and the sha256 of the ``indptr``, ``indices`` and ``weights``
bytes (``-`` for an unweighted graph).

Every field is computed from seeded generators alone, so the record is
the same on every host. An intended change to a generator or builder
regenerates it::

    PYTHONPATH=src python tests/graph/test_dataset_digests.py > tests/graph/dataset_digests.txt
"""

import hashlib
import pathlib
import sys

import numpy as np

from repro.graph import datasets

RECORD = pathlib.Path(__file__).with_name("dataset_digests.txt")

ALGORITHMS = ("bfs", "sssp", "wcc", "pr")


def _sha(array) -> str:
    if array is None:
        return "-"
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _line(label: str, graph) -> str:
    return (f"{label} {graph.directed} {graph.num_vertices} "
            f"{graph.num_edges} {_sha(graph.indptr)} "
            f"{_sha(graph.indices)} {_sha(graph.weights)}")


def lines():
    """The record's lines, from the current builders."""
    from repro.bench.workloads import prepare_graph

    for abbr in datasets.dataset_names():
        yield _line(abbr, datasets.load(abbr))
        for algorithm in ALGORITHMS:
            yield _line(f"{abbr}/{algorithm}", prepare_graph(abbr, algorithm))


def test_datasets_match_the_committed_record():
    record = RECORD.read_text().splitlines()
    assert len(record) == len(datasets.DATASETS) * (1 + len(ALGORITHMS))
    assert list(lines()) == record


if __name__ == "__main__":
    sys.stdout.write("".join(f"{line}\n" for line in lines()))
