"""The superstep's fragment table against the reference forms.

One pass over the owner-sorted frontier builds every fragment's work
and Table-I features; ``realize_plan`` slices every fragment with one
search over the table's running edge count; the engine prices the plan
and counts the messages from it. Each must match, bit for bit, the
plain form kept here as the executable specification: the features of
each part computed alone, Algorithm 1 run one fragment at a time, the
per-chunk pricing loop, and the message count through a ``V``-long
worker-of-vertex array.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import config
from repro.backend import count_messages
from repro.core.hubcache import HubCache
from repro.graph import from_edge_arrays
from repro.graph.features import frontier_features
from repro.hardware import dgx1
from repro.partition.base import Partition
from repro.runtime.bsp import BSPEngine
from repro.runtime.frontier import FragmentTable, Frontier
from repro.runtime.scheduler import RunContext, realize_plan

NUM_WORKERS = 8


# ----------------------------------------------------------------------
# Reference forms
# ----------------------------------------------------------------------
def reference_select(graph, vertices, x_row):
    """Algorithm 1, lines 9-18, on one fragment's sorted vertices."""
    x_row = np.asarray(x_row, dtype=np.int64)
    degree_prefix = np.cumsum(graph.out_degrees(vertices))
    assert int(degree_prefix[-1]) == int(x_row.sum())
    workers = np.flatnonzero(x_row > 0)
    if workers.size == 0:
        return []
    boundaries = np.searchsorted(degree_prefix, np.cumsum(x_row)[workers],
                                 side="left")
    stops = np.minimum(boundaries + 1, vertices.size)
    stops[-1] = vertices.size
    starts = np.concatenate(([0], stops[:-1]))
    edge_prefix = np.concatenate(([0], degree_prefix))
    keep = stops > starts
    starts, stops = starts[keep], stops[keep]
    return list(zip(workers[keep].tolist(),
                    (edge_prefix[stops] - edge_prefix[starts]).tolist(),
                    starts.tolist(), stops.tolist()))


def reference_rows(context, parts, workloads, quotas, hub_cache):
    """The chunk rows, one fragment at a time."""
    graph, rows = context.graph, []
    homes = context.fragment_home.tolist()
    for fragment, (part, load) in enumerate(zip(parts, workloads.tolist())):
        if not part and load == 0:
            continue
        if quotas is None:
            spans = [(int(context.fragment_worker[fragment]), load, 0,
                      part.size)]
        elif part and int(graph.out_degrees(part.vertices).sum()) == load:
            spans = reference_select(graph, part.vertices, quotas[fragment])
        else:
            spans = [(worker, quota, 0, 0) for worker, quota
                     in enumerate(quotas[fragment].tolist()) if quota > 0]
        for worker, edges, start, stop in spans:
            hub = 0
            if worker != homes[fragment]:
                hub = hub_cache.hub_edges(graph, part.vertices[start:stop])
            rows.append((fragment, worker, edges, hub, start, stop))
    return rows


def naive_price_chunks(engine, plan, fragment_features, context,
                       num_workers):
    """The per-chunk Python pricing loop."""
    timing = engine.timing
    busy = np.zeros(num_workers)
    compute_part = np.zeros(num_workers)
    comm_part = np.zeros(num_workers)
    rows = zip(plan.owner, plan.worker, plan.edges, plan.hub_edges,
               plan.start, plan.stop)
    for owner, worker, edges, hub_edges, start, stop in rows:
        if edges == 0:
            continue
        features = fragment_features[owner]
        compute = timing.compute_seconds(edges, features)
        home = int(context.fragment_home[owner])
        remote_edges = edges - hub_edges
        comm = remote_edges * timing.comm_seconds_per_edge(
            home, worker
        ) + hub_edges * timing.comm_seconds_per_edge(worker, worker)
        if worker != home:
            comm += timing.transfer_seconds(
                home, worker, (stop - start) * config.BYTES_PER_VERTEX,
            )
        compute += timing.kernel_launch_seconds(1)
        busy[worker] += compute + comm
        compute_part[worker] += compute
        comm_part[worker] += comm
    return busy, compute_part, comm_part


def naive_message_count(graph, owner, frontier, aggregate, context):
    """The count through a ``V``-long worker-of-vertex array and a hash
    ``np.unique`` over the cross edges' destinations."""
    sources, destinations, __ = frontier.gather(graph)
    if sources.size == 0:
        return 0
    worker_of = context.fragment_worker[owner]
    cross = worker_of[sources] != worker_of[destinations]
    if not np.any(cross):
        return 0
    if aggregate:
        return int(np.unique(destinations[cross]).size)
    return int(np.count_nonzero(cross))


# ----------------------------------------------------------------------
# Inputs: empty fragments, zero-out-degree vertices, one hub, and more
# fragments than vertices
# ----------------------------------------------------------------------
def _superstep(num_vertices, edge_factor, num_fragments, hub, seed):
    rng = np.random.default_rng(seed)
    num_edges = edge_factor * num_vertices
    # skewed sources; the high ids keep zero out-degree
    src = (rng.random(num_edges) ** 2 * num_vertices * 0.8).astype(np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges)
    if hub:
        spokes = rng.integers(0, num_vertices, size=3 * num_vertices)
        src = np.concatenate((src, np.zeros(spokes.size, dtype=np.int64)))
        dst = np.concatenate((dst, spokes))
    graph = from_edge_arrays(src, dst, num_vertices=num_vertices)
    owner = rng.integers(0, num_fragments, size=num_vertices)
    if rng.random() < 0.5:
        owner[owner == num_fragments - 1] = 0  # an empty fragment
    vertices = np.flatnonzero(rng.random(num_vertices) < rng.random())
    return graph, owner, Frontier(vertices), rng


ARGS = dict(
    num_vertices=st.integers(1, 60),
    edge_factor=st.integers(0, 4),
    num_fragments=st.integers(1, 9),
    hub=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**ARGS)
def test_table_columns_equal_each_part_alone(
    num_vertices, edge_factor, num_fragments, hub, seed
):
    graph, owner, frontier, __ = _superstep(
        num_vertices, edge_factor, num_fragments, hub, seed
    )
    table = frontier.split_by_owner(owner, num_fragments, graph)
    assert isinstance(table, FragmentTable) and len(table) == num_fragments
    rebuilt = FragmentTable.of(graph, list(table))
    owners = owner[frontier.vertices]
    for fragment, part in enumerate(table):
        alone = frontier.vertices[owners == fragment]
        assert part.vertices.tolist() == alone.tolist()
        features = frontier_features(graph, alone)
        # named tuples compare field by field, bit for bit
        assert table.features[fragment] == features
        assert rebuilt.features[fragment] == features
        assert part.features(graph) == features
        assert table.work[fragment] == part.work(graph) == int(
            graph.out_degrees(alone).sum()
        )


@settings(max_examples=60, deadline=None)
@given(**ARGS)
def test_plan_pricing_and_messages_equal_the_reference_forms(
    num_vertices, edge_factor, num_fragments, hub, seed
):
    graph, owner, frontier, rng = _superstep(
        num_vertices, edge_factor, num_fragments, hub, seed
    )
    engine = BSPEngine(dgx1(NUM_WORKERS))
    homes = rng.integers(0, NUM_WORKERS, size=num_fragments)
    context = RunContext(
        graph=graph,
        partition=Partition(graph, owner, num_fragments),
        timing=engine.timing,
        fragment_home=homes,
        fragment_worker=homes.copy(),
    )
    # an OSteal fold rewrites the fragment -> worker map in place
    context.fragment_worker[:] = rng.integers(
        0, NUM_WORKERS, size=num_fragments
    )
    table = frontier.split_by_owner(owner, num_fragments, graph)
    workloads = np.array(table.work, dtype=np.int64)
    # a decoupled workload (pull mode) becomes quota-only rows
    decoupled = rng.random(num_fragments) < 0.3
    workloads[decoupled] = rng.integers(0, 40, size=int(decoupled.sum()))
    quotas = np.array([
        rng.multinomial(load, rng.dirichlet(np.ones(NUM_WORKERS)))
        for load in workloads.tolist()
    ], dtype=np.int64)
    hub_cache = HubCache(graph, 2)
    parts = list(table)
    for x in (None, quotas):
        plan = realize_plan(context, table, workloads, quotas=x,
                            hub_cache=hub_cache,
                            active_workers=list(range(NUM_WORKERS)))
        got = list(zip(plan.owner, plan.worker, plan.edges,
                       plan.hub_edges, plan.start, plan.stop))
        assert got == reference_rows(context, parts, workloads, x,
                                     hub_cache)
        engine._validate_plan(plan, workloads, NUM_WORKERS)
        priced = engine._price_chunks(
            plan, table.edge_costs(engine.timing.device_model), context,
            NUM_WORKERS)
        reference = naive_price_chunks(engine, plan, table.features,
                                       context, NUM_WORKERS)
        for value, expected in zip(priced, reference):
            assert np.array_equal(value, expected)
    seen = np.zeros(graph.num_vertices, dtype=bool)
    for aggregate in (True, False):
        assert count_messages(
            graph, owner, context.fragment_worker, frontier, aggregate,
            seen,
        ) == naive_message_count(graph, owner, frontier, aggregate,
                                 context)
    # the identity map (no fold, no dead worker) skips the worker lookups
    context.fragment_worker[:] = np.arange(num_fragments)
    for aggregate in (True, False):
        assert count_messages(
            graph, owner, None, frontier, aggregate, seen,
        ) == naive_message_count(graph, owner, frontier, aggregate,
                                 context)
    assert not seen.any()


def test_pricing_edge_rows_equal_the_reference_loop(skewed_graph):
    """Stolen rows, hub-served edges, zero-edge rows and the empty plan,
    each priced against the per-chunk loop."""
    from repro.runtime.scheduler import IterationPlan

    engine = BSPEngine(dgx1(NUM_WORKERS))
    frontier = Frontier(np.arange(0, 400, 3))
    owner = np.arange(skewed_graph.num_vertices) % 4
    table = frontier.split_by_owner(owner, 4, skewed_graph)
    context = RunContext(
        graph=skewed_graph, partition=Partition(skewed_graph, owner, 4),
        timing=engine.timing, fragment_home=np.array([0, 2, 5, 7]),
        fragment_worker=np.array([0, 2, 5, 7]),
    )
    rows = {
        "empty": [],
        "stolen": [(0, 3, 400, 0, 0, 9), (1, 2, 12, 0, 0, 3),
                   (1, 6, 30, 0, 3, 20)],
        "hub": [(2, 1, 500, 480, 0, 11), (3, 7, 60, 60, 0, 4),
                (3, 4, 90, 90, 4, 8)],
        "zero-edge": [(0, 0, 0, 0, 0, 2), (2, 3, 0, 0, 5, 9),
                      (1, 2, 7, 0, 0, 1)],
    }
    for name, chunks in rows.items():
        plan = IterationPlan(list(range(NUM_WORKERS)), *(
            list(column) for column in (zip(*chunks) if chunks
                                        else [()] * 6)))
        priced = engine._price_chunks(
            plan, table.edge_costs(engine.timing.device_model), context,
            NUM_WORKERS)
        reference = naive_price_chunks(engine, plan, table.features,
                                       context, NUM_WORKERS)
        for value, expected in zip(priced, reference):
            assert np.array_equal(value, expected), name
    # the table's g* column is the device's, made once and shared
    costs = table.edge_costs(engine.timing.device_model)
    assert costs == engine.timing.device_model.edge_costs(table.features)
    assert table.copy().edge_costs(engine.timing.device_model) is costs
