"""Additional property-based tests (hypothesis) on newer components.

Covers the reactive-stealing simulation's conservation/termination,
persistence round-trips, reduction trees over random topologies, and
the engine's work-conservation invariant under arbitrary frontiers.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import PeekStealScheduler
from repro.core.reduction_tree import ReductionTree
from repro.graph import from_edge_arrays
from repro.graph.io_npz import load_graph, save_graph
from repro.hardware import LinkSpec, Topology


@st.composite
def workload_vectors(draw, max_workers=8):
    n = draw(st.integers(min_value=1, max_value=max_workers))
    loads = draw(
        st.lists(st.integers(0, 200_000), min_size=n, max_size=n)
    )
    return np.asarray(loads, dtype=np.int64)


@given(workload_vectors(),
       st.integers(min_value=1, max_value=5_000),
       st.floats(min_value=1e-6, max_value=1e-2))
@settings(max_examples=60, deadline=None)
def test_peeksteal_simulation_invariants(workloads, min_steal, latency):
    scheduler = PeekStealScheduler(
        steal_latency_seconds=latency, min_steal_edges=min_steal
    )
    quotas, steals = scheduler._simulate(
        workloads, np.arange(workloads.size), workloads.size,
        range(workloads.size),
    )
    # conservation: every fragment's edges are fully assigned
    assert np.array_equal(quotas.sum(axis=1), workloads)
    # no negative quotas, bounded steal count (termination evidence)
    assert np.all(quotas >= 0)
    assert steals <= 64 * workloads.size


@st.composite
def random_topologies(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    links = []
    for a in range(n):
        for b in range(a + 1, n):
            lanes = draw(st.integers(min_value=0, max_value=2))
            if lanes:
                links.append(LinkSpec(a, b, lanes))
    return Topology(n, links, name="random")


@given(random_topologies(), st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_reduction_tree_on_random_topologies(topology, group):
    group = min(group, topology.num_gpus)
    tree = ReductionTree(topology)
    ownership = tree.ownership(group)
    active = tree.active_workers(group)
    assert len(active) == group
    assert set(np.unique(ownership)).issubset(set(active))
    for worker in active:
        assert ownership[worker] == worker
    # folding is monotone: smaller groups are subsets
    if group > 1:
        smaller = set(tree.active_workers(group - 1))
        assert smaller.issubset(set(active))


@given(random_topologies())
@settings(max_examples=30, deadline=None)
def test_effective_bandwidth_dominates_direct(topology):
    direct = topology.direct_bandwidth_matrix()
    effective = topology.effective_bandwidth_matrix()
    assert np.all(effective >= direct - 1e-9)
    assert np.allclose(effective, effective.T)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=60))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weighted = draw(st.booleans())
    weights = None
    if weighted:
        weights = np.asarray(
            draw(st.lists(
                st.floats(min_value=0.1, max_value=10.0),
                min_size=m, max_size=m,
            ))
        )
    return from_edge_arrays(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_vertices=n, weights=weights,
    )


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_graph_npz_roundtrip(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("npz") / "g.npz"
    save_graph(graph, path)
    loaded = load_graph(path)
    assert np.array_equal(loaded.indptr, graph.indptr)
    assert np.array_equal(loaded.indices, graph.indices)
    if graph.weights is None:
        assert loaded.weights is None
    else:
        assert np.allclose(loaded.weights, graph.weights)
