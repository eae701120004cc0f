"""Bit-identity checks: vectorized hot path vs reference loops.

Each test compares a vectorized kernel against the straightforward
nested-loop implementation it replaced (kept in ``conftest.py`` as the
executable specification).  Everything is compared with
``np.array_equal`` — the vectorization must be *exact*, not merely
close, so solver decisions cannot drift.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from conftest import (
    naive_assembly,
    naive_edge_costs,
    naive_frontier_features,
    naive_message_count,
    naive_polynomial_expand,
    naive_price_chunks,
    naive_tree_predict,
)
from repro.bench import perfharness
from repro.core.milp import (
    HiGHSSolver,
    _assemble_constraints,
    make_solver,
)


@pytest.mark.parametrize("n_frag,n_work,seed", [
    (8, 8, 0), (64, 8, 0), (64, 8, 7), (16, 4, 3), (1, 1, 0),
])
def test_dense_assembly_bit_identical(n_frag, n_work, seed):
    problem = perfharness._random_problem(n_frag, n_work, seed=seed)
    c, a_ub, a_eq, b_eq, allowed, num_x = naive_assembly(problem)
    system = _assemble_constraints(problem)
    assert system.num_x == num_x
    assert np.array_equal(system.allowed, allowed)
    assert np.array_equal(system.c, c)
    assert np.array_equal(system.a_ub, a_ub)
    assert np.array_equal(system.a_eq, a_eq)
    assert np.array_equal(system.b_eq, b_eq)


def test_sparse_assembly_matches_dense(problem_64x8):
    dense = _assemble_constraints(problem_64x8)
    sparse_sys = _assemble_constraints(problem_64x8, use_sparse=True)
    assert np.array_equal(sparse_sys.a_ub.toarray(), dense.a_ub)
    assert np.array_equal(sparse_sys.a_eq.toarray(), dense.a_eq)
    assert np.array_equal(sparse_sys.c, dense.c)
    assert sparse_sys.scale == dense.scale


def test_lp_solution_matches_naive_matrices(problem_64x8):
    """linprog over naive matrices == linprog inside ``_lp_relaxation``."""
    c, a_ub, a_eq, b_eq, allowed, num_x = naive_assembly(problem_64x8)
    b_ub = np.zeros(a_ub.shape[0])
    reference = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    assert reference.success
    solver = make_solver("lp")
    solution = solver.solve(problem_64x8)
    problem_64x8.validate_assignment(solution.assignment)
    # The LP inputs are bit-identical, so the relaxation value the
    # rounding starts from must be too.
    system = _assemble_constraints(problem_64x8)
    vectorized = linprog(
        system.c, A_ub=system.a_ub, b_ub=system.b_ub,
        A_eq=system.a_eq, b_eq=system.b_eq,
        bounds=(0, None), method="highs",
    )
    assert vectorized.fun == reference.fun
    assert np.array_equal(vectorized.x, reference.x)


def test_highs_objective_matches_naive_matrices(problem_64x8):
    """The sparse-assembled MILP reproduces the dense formulation."""
    c, a_ub, a_eq, b_eq, allowed, num_x = naive_assembly(problem_64x8)
    integrality = np.ones(num_x + 1)
    integrality[-1] = 0.0
    reference = milp(
        c,
        constraints=[
            LinearConstraint(a_ub, -np.inf, np.zeros(a_ub.shape[0])),
            LinearConstraint(a_eq, b_eq, b_eq),
        ],
        integrality=integrality,
        bounds=Bounds(lb=0.0),
    )
    assert reference.success
    solution = HiGHSSolver().solve(problem_64x8)
    problem_64x8.validate_assignment(solution.assignment)
    scale = _assemble_constraints(problem_64x8).scale
    assert solution.objective == pytest.approx(
        reference.fun * scale, rel=1e-9
    )


def test_tree_predict_bit_identical():
    from repro.core.costmodel import DecisionTreeModel

    rng = np.random.default_rng(1)
    train = rng.uniform(0.0, 200.0, size=(512, 6))
    costs = np.exp(rng.normal(-20.0, 0.4, size=512))
    model = DecisionTreeModel()
    model.fit(train, costs)
    batch = rng.uniform(0.0, 200.0, size=(2048, 6))
    assert np.array_equal(model.predict(batch),
                          naive_tree_predict(model, batch))


def test_pricing_bit_identical():
    engine, plan, features, context, n_gpus = (
        perfharness._pricing_fixture()
    )
    vec = engine._price_chunks(
        plan, context.timing.device_model.edge_costs(features), context,
        n_gpus)
    ref = naive_price_chunks(engine, plan, features, context, n_gpus)
    for got, want in zip(vec, ref):
        assert np.array_equal(got, want)


def test_pricing_empty_plan_is_zero():
    from repro.runtime.scheduler import IterationPlan

    engine, _plan, features, context, n_gpus = (
        perfharness._pricing_fixture()
    )
    empty = IterationPlan(active_workers=[0])
    busy, compute, comm = engine._price_chunks(
        empty, context.timing.device_model.edge_costs(features), context,
        n_gpus
    )
    assert not any(busy) and not any(compute) and not any(comm)


# ----------------------------------------------------------------------
# ISSUE-4: decision amortization equivalence.
#
# ``amortize=False`` must reproduce pre-amortization virtual times bit
# for bit (the committed reference was recorded with ``--no-amortize``
# and its total matches the pre-amortization seed exactly);
# ``amortize=True`` must keep answers and iteration counts identical
# and land within tolerance on the virtual clock.
# ----------------------------------------------------------------------
import json

from conftest import PERF_DIR

REFERENCE_BFS_MANIFEST = (
    PERF_DIR.parent / "reference" / "tx-bfs-4gpu" / "manifest.json"
)


def test_amortize_disabled_bit_identical_to_reference(capsys):
    from repro.cli import main

    manifest = json.loads(REFERENCE_BFS_MANIFEST.read_text())
    assert manifest["fingerprint"]["workload"]["amortize"] is False
    code = main([
        "run", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gum", "--gpus", "4", "--cost-model", "oracle",
        "--no-amortize", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_ms"] == manifest["summary"]["total_ms"]
    assert payload["iterations"] == manifest["summary"]["iterations"]


def test_amortization_preserves_results_within_tolerance():
    from repro.core import GumConfig, GumEngine
    from repro.graph import road_network, with_random_weights
    from repro.hardware import dgx1
    from repro.partition import random_partition

    graph = with_random_weights(road_network(6, 80, seed=3), seed=1)
    partition = random_partition(graph, 8, seed=0)

    def run(config):
        return GumEngine(dgx1(8), config=config).run(
            graph, partition, "sssp", source=0
        )

    exact = run(GumConfig(cost_model="oracle", amortize=False))
    exact_again = run(GumConfig(cost_model="oracle", amortize=False))
    amortized = run(GumConfig(cost_model="oracle", amortize=True))

    # exact mode is deterministic down to the bit
    assert exact.total_seconds == exact_again.total_seconds
    # amortization never changes answers or the iteration structure
    assert np.array_equal(exact.values, amortized.values)
    assert exact.num_iterations == amortized.num_iterations
    # the virtual clock stays within tolerance of the exact path
    ratio = amortized.total_seconds / exact.total_seconds
    assert 0.85 <= ratio <= 1.15


# ----------------------------------------------------------------------
# ISSUE-19: the per-superstep kernels against their plain forms in
# ``conftest`` — the bitmap message count vs a ``V``-long worker array
# plus hash ``np.unique``, segmented Table-I features vs one scan per
# fragment, batched ``g`` vs one prediction per row. (The kernels'
# reference-free pins — ``distinct_vertices == np.unique``, the seeded
# split, every resolvable model, why the batch takes per-row dots —
# are tier-1 tests under ``tests/``.)
# ----------------------------------------------------------------------
from hypothesis import given, settings, strategies as st


@settings(max_examples=120, deadline=None)
@given(
    num_vertices=st.integers(1, 700),
    edge_factor=st.integers(0, 6),
    frontier_share=st.floats(0.0, 1.0),
    num_fragments=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_segmented_features_equal_per_fragment_scans(
    num_vertices, edge_factor, frontier_share, num_fragments, seed
):
    from repro.graph import from_edge_arrays
    from repro.graph.features import frontier_features

    rng = np.random.default_rng(seed)
    num_edges = edge_factor * num_vertices
    # squared uniforms skew the degrees; high ids stay sinks
    src = (rng.random(num_edges) ** 2 * num_vertices * 0.8).astype(np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges)
    graph = from_edge_arrays(src, dst, num_vertices=num_vertices)
    vertices = np.flatnonzero(rng.random(num_vertices) < frontier_share)
    owners = rng.integers(0, num_fragments, size=vertices.size)
    order = np.argsort(owners, kind="stable")
    boundaries = np.searchsorted(
        owners[order], np.arange(num_fragments + 1)
    )
    ordered = vertices[order]
    segmented = frontier_features(graph, ordered, boundaries)
    assert len(segmented) == num_fragments
    for index, got in enumerate(segmented):
        part = ordered[boundaries[index]: boundaries[index + 1]]
        # frozen dataclasses: every field, bit for bit
        assert got == naive_frontier_features(graph, part)


def test_message_count_matches_plain_form():
    from repro.runtime.frontier import Frontier

    session, frontier, context = perfharness._message_count_fixture()
    graph, partition = context.graph, context.partition
    rng = np.random.default_rng(2)
    frontiers = [frontier, Frontier(np.array([7])), Frontier.empty()] + [
        Frontier(rng.integers(0, graph.num_vertices, size=size))
        for size in (3, 500, 20000)
    ]
    # a folded group: two workers own all four fragments
    context.fragment_worker[:] = [0, 0, 2, 2]
    for active in frontiers:
        for aggregate in (True, False):
            assert session.message_count(
                active, aggregate, context
            ) == naive_message_count(
                graph, partition, active, aggregate, context
            )
    assert not session._seen.any()


@pytest.mark.parametrize("rows", [1, 8, 127, 128, 129, 300])
def test_polynomial_expand_bit_identical(rows):
    from repro.core.costmodel import _polynomial_expand

    matrix = np.random.default_rng(rows).normal(size=(rows, 6))
    for degree in (1, 2, 4):
        assert np.array_equal(
            _polynomial_expand(matrix, degree),
            naive_polynomial_expand(matrix, degree),
        )


def test_batched_g_equals_the_plain_audit_loop():
    model, features = perfharness._audit_fixture()
    assert len(features) > 1
    assert model.edge_costs_seconds(features) == naive_edge_costs(
        model, features
    )
