"""The three partitioner families evaluated in the paper (Exp-6).

* :func:`random_partition` — the trivial hash partitioner ("random");
  destroys locality, balances vertices in expectation. Used as the
  default for the main comparison (Exp-1) to neutralize partitioning
  effects across systems, as the paper does.
* :func:`segmented_partition` — the locality-aware "seq" partitioner:
  contiguous vertex-id ranges with equal *edge* counts (prefix-sum
  split). Preserves generator/crawl locality; prone to the
  "cocooning effect" the paper describes.
* :func:`metis_like_partition` — a multilevel-flavoured stand-in for
  METIS: BFS-grown fragments with an edge budget, followed by greedy
  boundary refinement that reduces edge-cut under a balance constraint.
  Not the real METIS (unavailable offline), but optimizes the same
  objective (min cut, balanced edges), which is all Exp-6 requires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import PartitionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import CSRGraph
    from repro.partition.base import Partition

# PARTITIONERS is read without partitioning anything (the CLI's
# ``--partitioner`` choices), so each partitioner imports NumPy itself.

__all__ = [
    "random_partition",
    "segmented_partition",
    "metis_like_partition",
    "make_partition",
    "PARTITIONERS",
]


def _check_k(graph: CSRGraph, num_fragments: int) -> None:
    if num_fragments < 1:
        raise PartitionError("need at least one fragment")
    if graph.num_vertices == 0 and num_fragments > 1:
        raise PartitionError("cannot split an empty graph")


def random_partition(
    graph: CSRGraph, num_fragments: int, seed: Optional[int] = 0
) -> Partition:
    """Assign each vertex to a uniformly random fragment (seeded)."""
    import numpy as np

    from repro.partition.base import Partition

    _check_k(graph, num_fragments)
    rng = np.random.default_rng(seed)
    owner = rng.integers(
        0, num_fragments, size=graph.num_vertices, dtype=np.int64
    )
    return Partition(graph, owner, num_fragments, name="random")


def segmented_partition(graph: CSRGraph, num_fragments: int) -> Partition:
    """Contiguous vertex ranges with (approximately) equal edge counts.

    Splits the out-degree prefix sum at multiples of ``|E| / n``:
    adjacent vertices stay together ("seq" locality) and every fragment
    owns about the same number of edges.
    """
    import numpy as np

    from repro.partition.base import Partition

    _check_k(graph, num_fragments)
    n = graph.num_vertices
    owner = np.zeros(n, dtype=np.int64)
    if n == 0 or num_fragments == 1:
        return Partition(graph, owner, num_fragments, name="seg")
    prefix = graph.indptr[1:].astype(np.float64)  # edges up to vertex v
    total = float(graph.num_edges)
    if total == 0:
        # no edges: fall back to equal vertex ranges
        owner = np.minimum(
            (np.arange(n) * num_fragments) // max(1, n), num_fragments - 1
        ).astype(np.int64)
        return Partition(graph, owner, num_fragments, name="seg")
    targets = total * np.arange(1, num_fragments) / num_fragments
    boundaries = np.searchsorted(prefix, targets, side="left") + 1
    owner = np.searchsorted(boundaries, np.arange(n), side="right").astype(
        np.int64
    )
    return Partition(graph, owner, num_fragments, name="seg")


def metis_like_partition(
    graph: CSRGraph,
    num_fragments: int,
    seed: Optional[int] = 0,
    refine_passes: int = 2,
    balance_slack: float = 0.05,
) -> Partition:
    """BFS-grown, cut-refined partition (METIS stand-in).

    Phase 1 grows fragments one at a time from unassigned seed vertices
    by BFS until the fragment reaches its edge budget — this keeps
    topologically-close vertices together (low cut). Phase 2 runs
    greedy Kernighan-Lin-style refinement: boundary vertices move to
    the neighboring fragment where most of their edges point, when the
    move reduces cut and respects the edge-balance slack.
    """
    import numpy as np

    from repro.partition.base import Partition

    _check_k(graph, num_fragments)
    n = graph.num_vertices
    if num_fragments == 1 or n == 0:
        return Partition(
            graph, np.zeros(n, dtype=np.int64), num_fragments, name="metis"
        )
    rng = np.random.default_rng(seed)
    degrees = graph.out_degrees()
    budget = graph.num_edges / num_fragments
    owner = np.full(n, -1, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices

    visit_order = rng.permutation(n)
    cursor = 0
    for frag in range(num_fragments - 1):
        # find an unassigned seed
        while cursor < n and owner[visit_order[cursor]] >= 0:
            cursor += 1
        if cursor >= n:
            break
        seed_vertex = int(visit_order[cursor])
        frontier = [seed_vertex]
        owner[seed_vertex] = frag
        edges_taken = int(degrees[seed_vertex])
        while frontier and edges_taken < budget:
            next_frontier: list[int] = []
            for v in frontier:
                for u in indices[indptr[v]: indptr[v + 1]].tolist():
                    if owner[u] < 0:
                        owner[u] = frag
                        edges_taken += int(degrees[u])
                        next_frontier.append(u)
                        if edges_taken >= budget:
                            break
                if edges_taken >= budget:
                    break
            frontier = next_frontier
    # Leftover vertices go to the currently lightest fragment (by
    # edges), heaviest vertices first — plain LPT balancing.
    frag_edges = np.zeros(num_fragments, dtype=np.int64)
    assigned = owner >= 0
    np.add.at(frag_edges, owner[assigned], degrees[assigned])
    leftovers = np.flatnonzero(~assigned)
    for v in leftovers[np.argsort(-degrees[leftovers])].tolist():
        target = int(np.argmin(frag_edges))
        owner[v] = target
        frag_edges[target] += int(degrees[v])

    # --- Phase 2: greedy boundary refinement -------------------------
    max_edges = (1.0 + balance_slack) * graph.num_edges / num_fragments
    for __ in range(max(0, refine_passes)):
        src, dst = graph.edge_array()
        cross = owner[src] != owner[dst]
        boundary = np.unique(src[cross])
        moved = 0
        for v in boundary.tolist():
            neigh = indices[indptr[v]: indptr[v + 1]]
            if neigh.size == 0:
                continue
            counts = np.bincount(owner[neigh], minlength=num_fragments)
            best = int(np.argmax(counts))
            current = int(owner[v])
            if best == current:
                continue
            gain = int(counts[best] - counts[current])
            deg = int(degrees[v])
            if gain > 0 and frag_edges[best] + deg <= max_edges:
                owner[v] = best
                frag_edges[current] -= deg
                frag_edges[best] += deg
                moved += 1
        if moved == 0:
            break
    return Partition(graph, owner, num_fragments, name="metis")


#: Partitioner registry keyed by the paper's names (Exp-6 x-axis).
PARTITIONERS = {
    "random": random_partition,
    "seg": lambda graph, k, seed=0: segmented_partition(graph, k),
    "metis": metis_like_partition,
}


def make_partition(
    name: str, graph: CSRGraph, num_fragments: int, seed: Optional[int] = 0
) -> Partition:
    """Build a partition by registry name (``random``/``seg``/``metis``)."""
    try:
        factory = PARTITIONERS[name]
    except KeyError:
        raise PartitionError(
            f"unknown partitioner {name!r}; known: {sorted(PARTITIONERS)}"
        ) from None
    return factory(graph, num_fragments, seed=seed)
