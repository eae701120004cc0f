"""Workload preparation for the benchmark harness.

Centralizes everything the experiment scripts share: the engine names
(built by :func:`repro.facade.make_engine`), per-algorithm graph
preparation (symmetrize for WCC, weights for SSSP), deterministic
source selection, and partition caching — so every experiment compares
the same inputs across systems, as the paper does.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict

from repro.algorithms import ALGORITHMS, make_algorithm
from repro.errors import EngineError
from repro.graph import datasets

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import CSRGraph
    from repro.partition import Partition

# ENGINE_NAMES is read without running anything (the CLI's ``--engine``
# choices), so the functions below import the graph stack they use.

__all__ = [
    "prepare_graph",
    "pick_source",
    "cached_partition",
    "algorithm_params",
    "ENGINE_NAMES",
]

ENGINE_NAMES = ("gum", "gunrock", "groute")

#: PageRank bounds used across all benchmark tables, mirroring the
#: fixed-iteration PR setup typical of system papers.
PR_PARAMS = {"max_rounds": 30, "tol": 1e-10}


@functools.lru_cache(maxsize=None)
def prepare_graph(abbr: str, algorithm: str) -> CSRGraph:
    """Load a dataset stand-in prepared for one algorithm.

    WCC gets the symmetrized edge set; SSSP gets deterministic integer
    weights in [1, 4]. Results are cached per (graph, algorithm-needs)
    pair so every engine sees the identical object.
    """
    from repro.graph.builders import symmetrize
    from repro.graph.generators import with_random_weights

    graph = datasets.load(abbr)
    algo = make_algorithm(algorithm)
    if algo.needs_symmetric and graph.directed:
        graph = symmetrize(graph).with_name(abbr)
    if algo.needs_weights and not graph.is_weighted:
        graph = with_random_weights(graph, seed=11).with_name(abbr)
    return graph


@functools.lru_cache(maxsize=None)
def pick_source(abbr: str) -> int:
    """Deterministic traversal source: the max-out-degree vertex.

    Guaranteed non-isolated, same for every engine and GPU count —
    the paper fixes sources per graph for the same reason.
    """
    import numpy as np

    graph = datasets.load(abbr)
    return int(np.argmax(graph.out_degrees()))


_PARTITION_CACHE: Dict[tuple, Partition] = {}


def cached_partition(
    graph: CSRGraph,
    num_fragments: int,
    partitioner: str = "random",
    seed: int = 0,
) -> Partition:
    """Build (and cache) a partition keyed by graph identity."""
    from repro.partition.partitioners import make_partition

    key = (id(graph), num_fragments, partitioner, seed)
    if key not in _PARTITION_CACHE:
        _PARTITION_CACHE[key] = make_partition(
            partitioner, graph, num_fragments, seed=seed
        )
    return _PARTITION_CACHE[key]


def algorithm_params(algorithm: str, abbr: str) -> dict:
    """Init params for one (algorithm, graph) benchmark cell."""
    if algorithm in ("bfs", "sssp", "dsssp"):
        return {"source": pick_source(abbr)}
    if algorithm == "pr":
        return dict(PR_PARAMS)
    if algorithm not in ALGORITHMS:
        raise EngineError(f"unknown algorithm {algorithm!r}")
    return {}
