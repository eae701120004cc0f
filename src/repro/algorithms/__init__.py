"""Vertex programs: the paper's four (BFS, SSSP, WCC, PR) plus
extensions (delta-PageRank, delta-stepping SSSP, k-core).

The registry's names are readable without importing any vertex
program (the CLI's ``--algorithm`` choices); a class is imported when
it is first looked up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Type

from repro._lazy import LazyTable, lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.algorithms.base import GASAlgorithm

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.algorithms.base": ("AlgorithmState", "GASAlgorithm"),
    "repro.algorithms.bfs": ("BFS",),
    "repro.algorithms.sssp": ("SSSP",),
    "repro.algorithms.wcc": ("WCC",),
    "repro.algorithms.pagerank": ("PageRank", "DeltaPageRank"),
    "repro.algorithms.delta_stepping": ("DeltaSteppingSSSP",),
    "repro.algorithms.kcore": ("KCore",),
})
__all__ += ["ALGORITHMS", "make_algorithm"]

#: Registry keyed by the short names used throughout the benchmarks.
ALGORITHMS: Mapping[str, Type[GASAlgorithm]] = LazyTable({
    "bfs": "repro.algorithms.bfs:BFS",
    "sssp": "repro.algorithms.sssp:SSSP",
    "wcc": "repro.algorithms.wcc:WCC",
    "pr": "repro.algorithms.pagerank:PageRank",
    "dpr": "repro.algorithms.pagerank:DeltaPageRank",
    "dsssp": "repro.algorithms.delta_stepping:DeltaSteppingSSSP",
    "kcore": "repro.algorithms.kcore:KCore",
})


def make_algorithm(name: str) -> GASAlgorithm:
    """Instantiate a registered algorithm by short name."""
    try:
        return ALGORITHMS[name]()
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}"
        ) from None
