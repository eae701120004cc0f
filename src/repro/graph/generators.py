"""Synthetic graph generators.

The paper evaluates on fifteen real graphs spanning three domains whose
*shape* drives the results:

* **Social networks** — heavily skewed degree distributions (hub
  vertices), small diameter. Generated here with R-MAT / Kronecker
  recursion, the standard synthetic stand-in (Graph500 uses the same).
* **Web graphs** — skewed but with strong locality and a moderate
  diameter. Generated with a copying-model crawl that links mostly to
  nearby ids plus a power-law tail.
* **Road networks** — near-constant tiny degrees and an enormous
  diameter. Generated as 2-D lattices with deterministic perturbation
  (deleted edges and a few shortcuts), the standard planar stand-in.

All generators are deterministic given a seed, return
:class:`~repro.graph.csr.CSRGraph`, and avoid Python-level per-edge loops.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.builders import _simple_graph, from_edge_arrays, symmetrize
from repro.graph.csr import CSRGraph

__all__ = [
    "rmat",
    "erdos_renyi",
    "grid_2d",
    "road_network",
    "web_graph",
    "small_world",
    "star",
    "path_graph",
    "complete_graph",
    "with_random_weights",
]


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def _rng_at(seed: int, offset: int) -> np.random.Generator:
    """The ``default_rng(seed)`` stream advanced by ``offset`` draws.

    PCG64 consumes one 64-bit step per ``random()`` double, so a
    chunked generator can replay any slice of the one-shot draw
    sequence without materializing the draws before it.
    """
    bits = np.random.PCG64(seed)
    bits.advance(offset)
    return np.random.Generator(bits)


#: Edges :func:`rmat` draws per batch, which bounds its per-bit
#: temporaries. Each batch continues its slice of the one-shot RNG
#: stream, so the graph is bit-identical for any batch size.
_EDGE_BATCH = 1 << 16


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = 0,
    undirected: bool = False,
    name: str = "rmat",
) -> CSRGraph:
    """Generate an R-MAT (recursive matrix) graph.

    ``2**scale`` vertices and about ``edge_factor * 2**scale`` edges
    before dedup. The default ``(a, b, c)`` are the Graph500 parameters,
    producing the heavy-tailed degree distribution typical of social
    networks. Self-loops and duplicate edges are removed.

    Edges are drawn in fixed-size batches, each replaying its slice of
    the one-shot RNG stream, so the working set is one fused key per
    edge plus a few batch-sized arrays, and the graph depends only on
    the arguments.
    """
    if scale < 1 or scale > 30:
        raise GraphError("rmat scale must be in [1, 30]")
    if not (0 < a and 0 <= b and 0 <= c and a + b + c < 1):
        raise GraphError("rmat probabilities must satisfy a+b+c < 1")
    if seed is None:
        seed = np.random.SeedSequence().entropy
    n = 1 << scale
    m = edge_factor * n
    # Probability of the column bit given the row bit.
    p_col_given_top = b / (a + b)
    p_col_given_bottom = (1 - a - b - c) / max(1e-12, 1 - a - b)
    # Permute ids so hubs are not clustered at id 0 (matters for the
    # locality-aware partitioner experiments).
    perm = _rng_at(seed, scale * 2 * m).permutation(n)
    # Each bit of the vertex id is drawn independently per quadrant:
    # bit ``b``'s row draws occupy stream positions [b*2m, b*2m+m) and
    # its column draws [b*2m+m, (b+1)*2m), so one generator per stream
    # hands each batch the next slice of it
    streams = [
        (_rng_at(seed, bit * 2 * m), _rng_at(seed, bit * 2 * m + m))
        for bit in range(scale)
    ]
    keys = np.empty(m, dtype=np.int64)
    for start in range(0, m, _EDGE_BATCH):
        size = min(_EDGE_BATCH, m - start)
        src = np.zeros(size, dtype=np.int64)
        dst = np.zeros(size, dtype=np.int64)
        for bit, (rows, cols) in enumerate(streams):
            go_right = rows.random(size) >= a + b  # bottom half
            r2 = cols.random(size)
            col_bit = np.where(
                go_right, r2 < p_col_given_bottom, r2 < p_col_given_top
            )
            src |= go_right.astype(np.int64) << bit
            dst |= col_bit.astype(np.int64) << bit
        batch = keys[start: start + size]
        np.take(perm, src, out=batch)
        batch *= n
        batch += perm[dst]
    return _simple_graph(keys, n, name, undirected)


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    seed: Optional[int] = 0,
    undirected: bool = False,
    name: str = "er",
) -> CSRGraph:
    """Uniform random graph with ``num_edges`` distinct directed edges."""
    if num_vertices < 1:
        raise GraphError("num_vertices must be positive")
    max_edges = num_vertices * (num_vertices - 1)
    if num_edges > max_edges:
        raise GraphError("too many edges requested for a simple graph")
    rng = _rng(seed)
    # Oversample then dedup the fused keys; repeat until enough
    # distinct edges.
    drawn = keys = np.empty(0, dtype=np.int64)
    while keys.size < num_edges:
        want = int((num_edges - keys.size) * 1.3) + 16
        s = rng.integers(0, num_vertices, size=want, dtype=np.int64)
        d = rng.integers(0, num_vertices, size=want, dtype=np.int64)
        drawn = np.concatenate([drawn, (s * num_vertices + d)[s != d]])
        keys, first = np.unique(drawn, return_index=True)
    if keys.size > num_edges:
        # keep the first num_edges distinct edges drawn, in key order
        cut = np.partition(first, num_edges - 1)[num_edges - 1]
        keys = keys[first <= cut]
    graph = from_edge_arrays(
        *np.divmod(keys, num_vertices), num_vertices=num_vertices,
        name=name, sort=False,
    )
    return symmetrize(graph) if undirected else graph


def _lattice(rows: int, cols: int):
    """Row-major lattice edges: every horizontal one, then every vertical."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    src = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    dst = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return src, dst


def grid_2d(
    rows: int,
    cols: int,
    seed: Optional[int] = 0,
    drop_fraction: float = 0.0,
    name: str = "grid",
) -> CSRGraph:
    """Undirected 2-D lattice of ``rows x cols`` vertices.

    ``drop_fraction`` of the lattice edges are deterministically removed
    (keeping the graph connected is not guaranteed for large fractions;
    :func:`road_network` layers a repair pass on top).
    """
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    src, dst = _lattice(rows, cols)
    if drop_fraction > 0:
        rng = _rng(seed)
        keep = rng.random(src.size) >= drop_fraction
        src, dst = src[keep], dst[keep]
    n = rows * cols
    return _simple_graph(src * n + dst, n, name, undirected=True)


def road_network(
    rows: int,
    cols: int,
    seed: Optional[int] = 0,
    drop_fraction: float = 0.08,
    shortcut_fraction: float = 0.001,
    permute_ids: bool = True,
    name: str = "road",
) -> CSRGraph:
    """Road-network stand-in: perturbed lattice plus rare shortcuts.

    The result has average degree < 4 and diameter Θ(rows + cols) — the
    regime where the paper's long-tail (LT) problem dominates. A spanning
    backbone (every horizontal edge of row 0 and every vertical edge of
    column 0) is kept so the graph remains connected.

    Vertex ids are randomly permuted by default: raw row-major ids are
    geodesically ordered, which makes id-based label propagation (WCC)
    artificially worst-case — real road datasets have no such ordering.
    """
    if rows < 2 or cols < 2:
        raise GraphError("road network needs at least a 2x2 lattice")
    rng = _rng(seed)
    src, dst = _lattice(rows, cols)
    # Backbone mask: row-0 horizontal edges and col-0 vertical edges.
    backbone = np.zeros(src.size, dtype=bool)
    backbone[: cols - 1] = True  # first row of horizontal edges
    vert_start = rows * (cols - 1)
    backbone[vert_start:: cols] = True  # column 0 of vertical edges
    keep = (rng.random(src.size) >= drop_fraction) | backbone
    src, dst = src[keep], dst[keep]
    # A few long-range shortcuts (bridges/highways).
    num_shortcuts = int(shortcut_fraction * rows * cols)
    if num_shortcuts:
        s = rng.integers(0, rows * cols, size=num_shortcuts, dtype=np.int64)
        d = rng.integers(0, rows * cols, size=num_shortcuts, dtype=np.int64)
        src = np.concatenate([src, s])
        dst = np.concatenate([dst, d])
    if permute_ids:
        perm = rng.permutation(rows * cols)
        src = perm[src]
        dst = perm[dst]
    n = rows * cols
    return _simple_graph(src * n + dst, n, name, undirected=True)


def web_graph(
    num_vertices: int,
    out_degree: int = 12,
    locality: float = 0.8,
    window: int = 512,
    seed: Optional[int] = 0,
    name: str = "web",
) -> CSRGraph:
    """Web-crawl stand-in: local links plus preferential long links.

    Each vertex emits a power-law-skewed number of links around
    ``out_degree`` (link farms and index pages have many; leaves have
    few); a ``locality`` fraction lands within ``window`` ids (crawl
    order locality, like uk-2002/webbase), the rest follow a Zipf-like
    distribution over all ids (popular pages attract global links).
    Diameter sits between social and road graphs and grows as
    ``locality -> 1`` with a small ``window``.
    """
    if num_vertices < 2:
        raise GraphError("web graph needs at least two vertices")
    if not 0 <= locality <= 1:
        raise GraphError("locality must be in [0, 1]")
    rng = _rng(seed)
    # Per-vertex out-degree: Pareto-tailed around the requested mean so
    # frontier workloads are skewed (the DLB ingredient), capped to keep
    # the edge count predictable.
    per_vertex = np.minimum(
        out_degree * 40,
        np.maximum(
            1, (out_degree * (0.4 + rng.pareto(2.2, num_vertices))).astype(
                np.int64
            )
        ),
    )
    m = int(per_vertex.sum())
    # The draws' order and sizes fix the graph of a seed; each is
    # folded into ``dst`` and dropped before the next.
    is_local = rng.random(m) < locality
    dst = rng.integers(1, window + 1, size=m, dtype=np.int64)
    np.negative(dst, out=dst, where=rng.random(m) < 0.5)
    # Zipf-ish global targets: squaring a uniform sample concentrates
    # mass on low ids, which act as the popular pages.
    u = rng.random(m)
    u *= u
    u *= num_vertices
    np.copyto(dst, u, casting="unsafe", where=~is_local)
    del u
    # local targets: the signed offset from the source, wrapped
    # (``keys`` holds the sources until it becomes the fused keys)
    keys = np.repeat(np.arange(num_vertices, dtype=np.int64), per_vertex)
    np.add(dst, keys, out=dst, where=is_local)
    np.mod(dst, num_vertices, out=dst, where=is_local)
    del is_local
    keys *= num_vertices
    keys += dst
    del dst
    return _simple_graph(keys, num_vertices, name)


def small_world(
    num_vertices: int,
    k: int = 4,
    rewire: float = 0.05,
    seed: Optional[int] = 0,
    name: str = "smallworld",
) -> CSRGraph:
    """Watts-Strogatz-style ring lattice with rewired long links."""
    if num_vertices < 3:
        raise GraphError("small world needs at least three vertices")
    if k < 1 or k >= num_vertices // 2 + 1:
        raise GraphError("k out of range")
    rng = _rng(seed)
    base = np.arange(num_vertices, dtype=np.int64)
    srcs = []
    dsts = []
    for hop in range(1, k + 1):
        srcs.append(base)
        dsts.append(np.mod(base + hop, num_vertices))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    rewired = rng.random(src.size) < rewire
    dst = dst.copy()
    dst[rewired] = rng.integers(
        0, num_vertices, size=int(rewired.sum()), dtype=np.int64
    )
    return _simple_graph(
        src * num_vertices + dst, num_vertices, name, undirected=True
    )


def star(num_leaves: int, name: str = "star") -> CSRGraph:
    """Star: vertex 0 connected to ``num_leaves`` leaves (undirected)."""
    if num_leaves < 1:
        raise GraphError("star needs at least one leaf")
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    src = np.concatenate([np.zeros(num_leaves, dtype=np.int64), leaves])
    dst = np.concatenate([leaves, np.zeros(num_leaves, dtype=np.int64)])
    return from_edge_arrays(
        src, dst, num_vertices=num_leaves + 1, directed=False, name=name
    )


def path_graph(num_vertices: int, name: str = "path") -> CSRGraph:
    """Undirected simple path on ``num_vertices`` vertices."""
    if num_vertices < 1:
        raise GraphError("path needs at least one vertex")
    if num_vertices == 1:
        return from_edge_arrays(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            num_vertices=1,
            directed=False,
            name=name,
        )
    a = np.arange(num_vertices - 1, dtype=np.int64)
    src = np.concatenate([a, a + 1])
    dst = np.concatenate([a + 1, a])
    return from_edge_arrays(
        src, dst, num_vertices=num_vertices, directed=False, name=name
    )


def complete_graph(num_vertices: int, name: str = "complete") -> CSRGraph:
    """Complete directed graph (no self loops)."""
    if num_vertices < 1:
        raise GraphError("complete graph needs at least one vertex")
    src = np.repeat(
        np.arange(num_vertices, dtype=np.int64), num_vertices
    )
    dst = np.tile(np.arange(num_vertices, dtype=np.int64), num_vertices)
    keep = src != dst
    return from_edge_arrays(
        src[keep], dst[keep], num_vertices=num_vertices, name=name
    )


def with_random_weights(
    graph: CSRGraph,
    low: float = 1.0,
    high: float = 4.0,
    seed: Optional[int] = 0,
    integer: bool = True,
) -> CSRGraph:
    """Attach deterministic pseudo-random edge weights to a graph.

    Integer weights in a narrow band keep SSSP iteration counts
    proportional to the graph diameter, which is what the paper's
    long-tail experiments rely on.
    """
    if high < low:
        raise GraphError("weight range is empty")
    rng = _rng(seed)
    if integer:
        weights = rng.integers(
            int(low), int(high) + 1, size=graph.num_edges
        ).astype(np.float64)
    else:
        weights = rng.uniform(low, high, size=graph.num_edges)
    # the topology is read-only: share it rather than copy it
    return CSRGraph(
        graph.indptr,
        graph.indices,
        weights=weights,
        directed=graph.directed,
        name=graph.name,
    )
