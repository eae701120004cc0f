"""Shared fixtures for the hot-path performance suite.

``benchmarks/perf`` is the regression harness the ISSUE-2 tentpole
added: it locks in the vectorized per-iteration hot path three ways —

1. **equivalence** (``test_equivalence.py``): the vectorized kernels
   produce bit-identical outputs to straightforward reference
   implementations (the pre-vectorization code, kept here as the
   executable specification);
2. **speedup** (``test_hotpath.py``): the vectorized kernels beat the
   reference implementations by the required factor *measured in the
   same process*, so the check is machine-independent;
3. **baseline gate** (``test_hotpath.py``): machine-normalized scores
   must not regress >30% against ``benchmarks/perf/baseline.json``
   (refresh with ``python -m repro bench --update-baseline``).

The suite also emits ``BENCH_hotpath.json`` (repo root by default,
``REPRO_BENCH_OUT`` overrides), which CI uploads as an artifact.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from repro.bench import perfharness

PERF_DIR = pathlib.Path(__file__).parent
BASELINE_PATH = PERF_DIR / "baseline.json"


@pytest.fixture(scope="session")
def bench_report():
    """Run the microbenchmark suite once per session and persist it."""
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    report = perfharness.run_suite(repeats=repeats)
    out = os.environ.get("REPRO_BENCH_OUT", "BENCH_hotpath.json")
    perfharness.write_report(report, out)
    print(f"\n{perfharness.format_report(report)}\nreport: {out}")
    return report


@pytest.fixture(scope="session")
def problem_64x8():
    """The ISSUE's 8-GPU x 64-fragment FSteal microbench instance."""
    return perfharness._random_problem(64, 8)


# ----------------------------------------------------------------------
# Reference (pre-vectorization) implementations: the executable spec
# the vectorized kernels must match bit for bit.
# ----------------------------------------------------------------------
def naive_assembly(problem):
    """The legacy nested-loop constraint assembly of ``_lp_relaxation``.

    Returns (c, a_ub, a_eq, b_eq, allowed, num_x) with the same
    variable ordering the vectorized assembler uses.
    """
    from repro.core.milp import _cost_scale

    scale = _cost_scale(problem.costs)
    costs, workloads = problem.costs / scale, problem.workloads
    n_frag, n_work = problem.num_fragments, problem.num_workers
    allowed = np.isfinite(costs) & (workloads[:, None] > 0)
    var_index = -np.ones((n_frag, n_work), dtype=np.int64)
    var_index[allowed] = np.arange(int(allowed.sum()))
    num_x = int(allowed.sum())
    num_vars = num_x + 1
    c = np.zeros(num_vars)
    c[-1] = 1.0
    a_ub = np.zeros((n_work, num_vars))
    for i in range(n_frag):
        for j in range(n_work):
            if allowed[i, j]:
                a_ub[j, var_index[i, j]] = costs[i, j]
    a_ub[:, -1] = -1.0
    rows = [i for i in range(n_frag) if workloads[i] > 0]
    a_eq = np.zeros((len(rows), num_vars))
    for r, i in enumerate(rows):
        for j in range(n_work):
            if allowed[i, j]:
                a_eq[r, var_index[i, j]] = 1.0
    b_eq = workloads[rows].astype(np.float64)
    return c, a_ub, a_eq, b_eq, allowed, num_x


def naive_tree_predict(model, features):
    """The legacy per-row Python ``while`` traversal of the CART tree."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    out = np.empty(features.shape[0])
    for row in range(features.shape[0]):
        node = 0
        while True:
            feature, value, left, right = model._nodes[node]
            if feature < 0:
                out[row] = value
                break
            node = left if features[row, feature] <= value else right
    return np.exp(out) / 1e9


def naive_price_chunks(engine, plan, fragment_features, context,
                       num_workers):
    """The legacy per-chunk Python pricing loop of ``_run_iteration``."""
    from repro import config

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


# ----------------------------------------------------------------------
# ISSUE-19: the per-superstep kernels' plain forms — hash ``np.unique``
# vertex sets, one feature scan per fragment, one prediction per row.
# ----------------------------------------------------------------------
def naive_message_count(graph, partition, frontier, aggregate, context):
    """The legacy count: a ``V``-long worker-of-vertex array and a
    hash ``np.unique`` over the cross edges' destinations."""
    sources, destinations, __ = frontier.gather(graph)
    if sources.size == 0:
        return 0
    worker_of = context.fragment_worker[partition.owner]
    cross = worker_of[sources] != worker_of[destinations]
    if not np.any(cross):
        return 0
    if aggregate:
        return int(np.unique(destinations[cross]).size)
    return int(np.count_nonzero(cross))


def naive_frontier_features(graph, vertices):
    """One fragment's Table-I features, each statistic on its own."""
    from repro.graph.features import FrontierFeatures
    from repro.graph.properties import degree_entropy, gini_coefficient

    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return FrontierFeatures.empty()
    out_deg = graph.out_degrees(vertices)
    in_deg = graph.in_degrees()[vertices]
    return FrontierFeatures(
        avg_in_degree=float(in_deg.mean()),
        avg_out_degree=float(out_deg.mean()),
        in_degree_range=float(in_deg.max() - in_deg.min()),
        out_degree_range=float(out_deg.max() - out_deg.min()),
        gini=gini_coefficient(out_deg),
        entropy=degree_entropy(out_deg),
        size=int(vertices.size),
        total_edges=int(out_deg.sum()),
    )


def naive_polynomial_expand(matrix, degree):
    """Polynomial basis, row by row, one left-to-right product per
    monomial (``1*a``, ``(1*a)*b``, ...)."""
    import itertools

    n, d = matrix.shape
    combos = [
        combo
        for deg in range(1, degree + 1)
        for combo in itertools.combinations_with_replacement(range(d), deg)
    ]
    out = np.empty((n, len(combos) + 1))
    for index in range(n):
        row = matrix[index]
        values = [1.0]
        for combo in combos:
            value = 1.0
            for feature in combo:
                value = value * row[feature]
            values.append(value)
        out[index] = values
    return out


def naive_edge_costs(model, frontiers):
    """The plain audit loop over a polynomial model: one frontier at a
    time through the model's own squash and feature standardization,
    the plain expansion, and the row's products with the folded
    weights summed along the row."""
    from repro.core.costmodel import _squash

    weights = model._folded_weights()
    costs = []
    for features in frontiers:
        row = features.vector()[None, :]
        scaled = np.clip(model._scaler.transform(_squash(row)), -4.0, 4.0)
        raw = np.add.reduce(
            naive_polynomial_expand(scaled, model._degree) * weights, axis=1
        )
        costs.append(float((np.maximum(raw, 0.01) / 1e9)[0]))
    return costs
