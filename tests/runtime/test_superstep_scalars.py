"""The superstep's scalar bookkeeping against its NumPy formulation.

A plan has at most fragments x workers rows, so the engine validates,
prices and folds it on Python scalars. The NumPy forms kept here — the
column-wise pricing with ``bincount`` sums, the chaos retry batch, the
``np.mean``-style fold — are the executable specification: every
result must match them bit for bit, chaos counters included.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.chaos import ChaosController, ChaosScenario, FaultSpec
from repro.chaos.controller import RETRY_BACKOFF_SECONDS
from repro.graph.features import FrontierFeatures
from repro.hardware import dgx1
from repro.runtime.bsp import BSPEngine, fold_active
from repro.runtime.scheduler import IterationPlan

NUM_WORKERS = 8

#: flaky transfers over iterations 0-9, worker 3 slowed 2.5x over 2-5
FAULTS = (
    FaultSpec("flaky_transfers", 0,
              {"duration": 10, "rate": 0.6, "max_retries": 4}),
    FaultSpec("slow_worker", 2, {"worker": 3, "factor": 2.5,
                                 "duration": 4}),
)


def numpy_price_chunks(plan, features, context, num_workers, chaos,
                       iteration):
    """The column-wise pricing: int64 columns, one ``g*`` gather, the
    retry batch over the stolen rows and ``bincount`` per worker."""
    timing = context.timing
    owners, workers, edges, hub_edges, start, stop = (
        np.asarray(column, dtype=np.int64) for column in (
            plan.owner, plan.worker, plan.edges, plan.hub_edges,
            plan.start, plan.stop))
    rows = edges != 0
    owners, workers, edges, hub_edges, moved = (
        column[rows] for column in (owners, workers, edges, hub_edges,
                                    stop - start))
    edges, hub_edges = edges.astype(float), hub_edges.astype(float)
    homes = np.asarray(context.fragment_home)[owners]
    compute = edges * np.take(
        timing.device_model.edge_costs(features), owners)
    per_edge = np.array(timing.pricing_rows()[0])
    comm = ((edges - hub_edges) * per_edge[homes, workers]
            + hub_edges * per_edge[workers, workers])
    stolen = workers != homes
    if stolen.any():
        bandwidth = timing.topology.effective_bandwidth_matrix()[
            homes[stolen], workers[stolen]]
        migrate = (moved[stolen].astype(float) * config.BYTES_PER_VERTEX
                   / (bandwidth * 1e9))
        comm[stolen] += migrate
        if chaos is not None and chaos.flaky_active(iteration):
            fails = chaos.failed_transfer_attempts_batch(
                iteration, owners[stolen], workers[stolen]).astype(float)
            backoff = RETRY_BACKOFF_SECONDS * (2.0 ** fails - 1.0)
            comm[stolen] += np.where(fails > 0, fails * migrate + backoff,
                                     0.0)
    compute = compute + timing.kernel_launch_seconds(1)
    busy = np.bincount(workers, compute + comm, num_workers)
    compute_part = np.bincount(workers, compute, num_workers)
    comm_part = np.bincount(workers, comm, num_workers)
    scale = None if chaos is None else chaos.compute_scale(iteration)
    if scale is not None:
        busy = busy + compute_part * (scale - 1.0)
        compute_part = compute_part * scale
    return busy, compute_part, comm_part


def numpy_fold(busy, compute, comm, active):
    """The fold as array indexing and ``np.add.reduce`` means."""
    active = np.asarray(active, dtype=np.int64)
    busy_active = np.asarray(busy)[active]
    stall_active = busy_active.max() - busy_active
    stall = np.zeros(len(busy))
    stall[active] = stall_active
    total, n = np.add.reduce, len(active)
    return stall, float(total(np.asarray(compute)[active])) / n, (
        float(total(np.asarray(comm)[active])) / n
        + float(total(stall_active)) / n
    )


def _features(rng, num_fragments):
    return [
        FrontierFeatures(
            avg_in_degree=float(rng.random() * 40),
            avg_out_degree=float(rng.random() * 40),
            in_degree_range=float(rng.integers(0, 500)),
            out_degree_range=float(rng.integers(0, 500)),
            gini=float(rng.random()), entropy=float(rng.random() * 3),
            size=int(rng.integers(1, 200)),
            # an empty fragment prices its edges at the base cost
            total_edges=int(rng.integers(0, 3) and rng.integers(1, 9999)),
        )
        for __ in range(num_fragments)
    ]


def _plan(rng, num_fragments):
    """Random rows: stolen and local, hub-served, zero-edge."""
    rows = int(rng.integers(0, num_fragments * NUM_WORKERS + 1))
    edges = rng.integers(0, 3000, size=rows)
    edges[rng.random(rows) < 0.2] = 0
    start = rng.integers(0, 50, size=rows)
    return IterationPlan(
        active_workers=list(range(NUM_WORKERS)),
        owner=rng.integers(0, num_fragments, size=rows).tolist(),
        worker=rng.integers(0, NUM_WORKERS, size=rows).tolist(),
        edges=edges.tolist(),
        hub_edges=(edges * rng.random(rows) * (rng.random(rows) < 0.5))
        .astype(np.int64).tolist(),
        start=start.tolist(),
        stop=(start + rng.integers(0, 60, size=rows)).tolist(),
    )


def _context(engine, home):
    """What pricing reads of a run's context."""
    return SimpleNamespace(timing=engine.timing, fragment_home=home)


def _controller():
    controller = ChaosController(ChaosScenario(faults=FAULTS, seed=11))
    controller.begin_run(dgx1(NUM_WORKERS))
    return controller


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_fragments=st.integers(1, 9),
       iteration=st.integers(0, 12), chaos=st.booleans())
def test_pricing_equals_the_numpy_formulation(seed, num_fragments,
                                              iteration, chaos):
    rng = np.random.default_rng(seed)
    engine = BSPEngine(dgx1(NUM_WORKERS),
                       chaos=_controller() if chaos else None)
    reference_chaos = _controller() if chaos else None
    features = _features(rng, num_fragments)
    plan = _plan(rng, num_fragments)
    home = rng.integers(0, NUM_WORKERS, size=num_fragments)
    context = _context(engine, home)
    priced = engine._price_chunks(
        plan, engine.timing.device_model.edge_costs(features), context,
        NUM_WORKERS, iteration=iteration)
    expected = numpy_price_chunks(plan, features, context, NUM_WORKERS,
                                  reference_chaos, iteration)
    for value, want in zip(priced, expected):
        assert np.array_equal(np.array(value), want)
        assert all(type(seconds) is float for seconds in value)
    if chaos:
        assert engine.chaos.stats() == reference_chaos.stats()


def test_chaos_pricing_draws_and_slows():
    """The property's faults do fire: retries are drawn and charged,
    and the slowed worker's compute stretches."""
    rng = np.random.default_rng(5)
    features = _features(rng, 4)
    plan = IterationPlan(
        active_workers=list(range(NUM_WORKERS)),
        owner=[0, 1, 2, 3], worker=[3, 1, 5, 3], edges=[900, 40, 700, 0],
        hub_edges=[100, 0, 0, 0], start=[0, 0, 3, 0], stop=[40, 9, 30, 5],
    )
    context = _context(BSPEngine(dgx1(NUM_WORKERS)), np.arange(4))
    edge_cost = context.timing.device_model.edge_costs(features)
    healthy = BSPEngine(dgx1(NUM_WORKERS))._price_chunks(
        plan, edge_cost, context, NUM_WORKERS, iteration=3)
    engine = BSPEngine(dgx1(NUM_WORKERS), chaos=_controller())
    faulty = engine._price_chunks(plan, edge_cost, context, NUM_WORKERS,
                                  iteration=3)
    assert engine.chaos.stats()["transfer_retries"] > 0
    # a retried transfer only adds communication
    assert faulty[2] != healthy[2]
    assert all(f >= h for f, h in zip(faulty[2], healthy[2]))
    assert faulty[1][3] == healthy[1][3] * 2.5  # the slowed worker
    assert faulty[1][1] == healthy[1][1]


@pytest.mark.parametrize("size", range(1, 17))
def test_fold_equals_the_numpy_formulation(size):
    """Pairwise summation starts at 8 operands, so every group size up
    to 16 is compared, with magnitudes that make the order matter."""
    rng = np.random.default_rng(size)
    for __ in range(25):
        busy, compute, comm = (
            (rng.random(16) * 10.0 ** rng.integers(-9, 1, size=16)).tolist()
            for __ in range(3)
        )
        active = sorted(rng.choice(16, size=size, replace=False).tolist())
        stall, compute_mean, comm_mean = fold_active(busy, compute, comm,
                                                     active)
        want = numpy_fold(busy, compute, comm, active)
        assert np.array_equal(np.array(stall), want[0])
        assert (compute_mean, comm_mean) == want[1:]

