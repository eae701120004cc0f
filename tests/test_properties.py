"""Property-based tests (hypothesis) on core structures and invariants.

These probe the load-bearing invariants of the system with randomized
inputs: CSR construction round-trips, partition cover/disjointness,
frontier set algebra, FSteal feasibility and its never-worse-than-static
guarantee, Algorithm 1's conservation, reduction-tree ownership
validity, and algorithm correctness against independent oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import make_algorithm
from repro.algorithms.validate import reference_bfs, reference_sssp
from repro.core import FStealProblem, GreedySolver, LPRoundingSolver
from repro.core.reduction_tree import ReductionTree
from repro.graph import from_edge_arrays, gini_coefficient
from repro.graph.gather import gather_edges
from repro.hardware import dgx1
from repro.partition import Partition
from repro.runtime import Frontier, select_vertices

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
MAX_V = 40


@st.composite
def edge_lists(draw, max_vertices=MAX_V, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


@st.composite
def fsteal_instances(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    loads = draw(
        st.lists(st.integers(0, 5000), min_size=n, max_size=n)
    )
    cost_cells = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=5.0),
            min_size=n * n, max_size=n * n,
        )
    )
    costs = 1e-9 * np.asarray(cost_cells).reshape(n, n)
    # forbid a few off-diagonal pairs (homes always stay allowed)
    forbid = draw(
        st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    )
    mask = np.asarray(forbid).reshape(n, n)
    np.fill_diagonal(mask, False)
    costs[mask] = np.inf
    return FStealProblem(costs, np.asarray(loads, dtype=np.int64))


# ----------------------------------------------------------------------
# Graph properties
# ----------------------------------------------------------------------
@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_csr_roundtrip(data):
    n, src, dst = data
    graph = from_edge_arrays(src, dst, num_vertices=n)
    out_src, out_dst = graph.edge_array()
    # the edge multiset is preserved
    original = sorted(zip(src.tolist(), dst.tolist()))
    rebuilt = sorted(zip(out_src.tolist(), out_dst.tolist()))
    assert original == rebuilt
    assert int(graph.out_degrees().sum()) == src.size
    assert int(graph.in_degrees().sum()) == src.size


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_gather_covers_frontier_edges(data):
    n, src, dst = data
    graph = from_edge_arrays(src, dst, num_vertices=n)
    frontier = np.unique(src)[:10]
    sources, destinations, __ = gather_edges(graph, frontier)
    expected = int(graph.out_degrees(frontier).sum()) if frontier.size else 0
    assert sources.size == expected
    assert destinations.size == expected


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
             max_size=200)
)
@settings(max_examples=60, deadline=None)
def test_gini_bounds(values):
    gini = gini_coefficient(np.asarray(values))
    assert -1e-9 <= gini <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# Partition properties
# ----------------------------------------------------------------------
@given(edge_lists(), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=40, deadline=None)
def test_partition_invariants(data, k, seed):
    n, src, dst = data
    graph = from_edge_arrays(src, dst, num_vertices=n)
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, k, size=n, dtype=np.int64)
    partition = Partition(graph, owner, k)
    # cover: fragment vertex sets partition V
    union = np.concatenate(
        [partition.vertices_of(f) for f in range(k)]
    )
    assert np.array_equal(np.sort(union), np.arange(n))
    # edges are conserved
    assert int(partition.fragment_edges().sum()) == graph.num_edges
    # frontier split is a disjoint cover of the frontier
    frontier = Frontier(rng.integers(0, n, size=min(n, 12)))
    parts = frontier.split_by_owner(partition.owner, k, graph)
    merged = np.sort(np.concatenate([p.vertices for p in parts]))
    assert np.array_equal(merged, frontier.vertices)
    for fragment, part in enumerate(parts):
        assert np.all(owner[part.vertices] == fragment)


# ----------------------------------------------------------------------
# Frontier algebra
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(0, 100), max_size=40),
    st.lists(st.integers(0, 100), max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_frontier_set_laws(a_items, b_items):
    a, b = Frontier(a_items), Frontier(b_items)
    union = a.union(b)
    inter = a.intersection(b)
    diff = a.difference(b)
    assert union.size == a.size + b.size - inter.size
    assert diff.union(inter) == a
    assert union == b.union(a)
    assert inter == b.intersection(a)


# ----------------------------------------------------------------------
# FSteal properties
# ----------------------------------------------------------------------
@given(fsteal_instances())
@settings(max_examples=40, deadline=None)
def test_fsteal_solvers_feasible_and_bounded(problem):
    static = np.zeros_like(problem.costs, dtype=np.int64)
    np.fill_diagonal(static, problem.workloads)
    static_objective = problem.objective(static)
    finite = problem.costs[np.isfinite(problem.costs)]
    # integral rounding may add up to one edge per fragment
    rounding_slack = (
        problem.num_fragments * float(finite.max()) if finite.size else 0.0
    )
    greedy = GreedySolver().solve(problem)
    problem.validate_assignment(greedy.assignment)
    # greedy refines from the no-steal seed: never worse than static
    assert greedy.objective <= static_objective + 1e-15
    lp = LPRoundingSolver().solve(problem)
    problem.validate_assignment(lp.assignment)
    assert lp.objective <= static_objective + rounding_slack + 1e-15


@st.composite
def decline_instances(draw, max_n=6):
    """FSteal instances shaped like the arbitrator's gated decisions:
    whole ``inf`` columns (evicted workers), zero-load rows, a single
    usable worker, and uniform instances that greedy balances onto the
    bound exactly; plus a no-steal owner per fragment and an overhead.
    """
    n_frag = draw(st.integers(1, max_n))
    n_work = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(["random", "one-worker", "uniform"]))
    if shape == "uniform":
        # equal loads on equal costs, one fragment per worker: the
        # diagonal seed already sits on the bound
        n_work = n_frag
        cost = draw(st.floats(min_value=0.1, max_value=5.0)) * 1e-9
        costs = np.full((n_frag, n_work), cost)
        loads = np.full(n_frag, draw(st.integers(0, 5000)))
    else:
        cells = draw(st.lists(st.floats(min_value=0.1, max_value=5.0),
                              min_size=n_frag * n_work,
                              max_size=n_frag * n_work))
        costs = 1e-9 * np.asarray(cells).reshape(n_frag, n_work)
        usable = (
            [draw(st.integers(0, n_work - 1))] if shape == "one-worker"
            else draw(st.lists(st.integers(0, n_work - 1), min_size=1,
                               max_size=n_work, unique=True))
        )
        costs[:, [j for j in range(n_work) if j not in usable]] = np.inf
        loads = np.asarray(draw(st.lists(
            st.integers(0, 5000), min_size=n_frag, max_size=n_frag
        )))
        zero = draw(st.lists(st.booleans(), min_size=n_frag,
                             max_size=n_frag))
        loads[np.asarray(zero)] = 0
    problem = FStealProblem(costs, loads.astype(np.int64))
    owner = np.asarray([draw(st.sampled_from(cols))
                        for cols in problem.allowed], dtype=np.int64)
    overhead = draw(st.floats(min_value=0.0, max_value=2e-5))
    return problem, owner, overhead


@given(decline_instances())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_declined_solve_is_one_the_gate_rejects(instance):
    """The certified bound never beats a solve, so an instance the
    arbitrator declines is one whose solve the gain gate rejects."""
    from repro.core import GumScheduler, HiGHSSolver

    problem, owner, overhead = instance
    bound = problem.lower_bound()
    greedy = GreedySolver().solve(problem)
    assert bound <= greedy.objective
    assert bound <= HiGHSSolver().solve(problem).objective
    static = GumScheduler._static_makespan(
        problem.rows, problem.workloads, owner
    )
    if static - bound <= overhead:  # declined
        assert static - greedy.objective <= overhead  # gate rejects


@given(st.integers(0, 10_000), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_select_vertices_conserves(total_seed, split_seed):
    from repro.graph import rmat

    graph = rmat(8, 6, seed=3)
    rng = np.random.default_rng(total_seed)
    frontier = Frontier(
        np.unique(rng.integers(0, graph.num_vertices, size=30))
    )
    total = frontier.work(graph)
    rng2 = np.random.default_rng(split_seed)
    weights = rng2.random(4) + 0.01
    quotas = np.floor(total * weights / weights.sum()).astype(np.int64)
    quotas[0] += total - quotas.sum()
    spans = select_vertices(graph, frontier, quotas)
    assert sum(edges for __, edges, __, __ in spans) == total
    covered = (
        np.sort(np.concatenate([frontier.vertices[start:stop]
                                for __, __, start, stop in spans]))
        if spans
        else np.empty(0, dtype=np.int64)
    )
    if total > 0:
        assert np.array_equal(covered, frontier.vertices)


# ----------------------------------------------------------------------
# Reduction tree properties
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_reduction_tree_ownership_valid(num_gpus, group):
    if group > num_gpus:
        group = num_gpus
    tree = ReductionTree(dgx1(num_gpus))
    ownership = tree.ownership(group)
    active = tree.active_workers(group)
    assert len(active) == group
    assert set(np.unique(ownership)).issubset(set(active))


# ----------------------------------------------------------------------
# Algorithms vs oracles on random graphs
# ----------------------------------------------------------------------
@given(edge_lists(max_vertices=30, max_edges=80),
       st.integers(min_value=0, max_value=29))
@settings(max_examples=25, deadline=None)
def test_bfs_random_graphs(data, source_pick):
    n, src, dst = data
    graph = from_edge_arrays(src, dst, num_vertices=n)
    source = source_pick % n
    algorithm = make_algorithm("bfs")
    state = algorithm.init(graph, source=source)
    while state.frontier and state.iteration < 500:
        state.frontier = algorithm.step(graph, state)
        state.iteration += 1
    assert np.allclose(state.values, reference_bfs(graph, source))


@given(edge_lists(max_vertices=25, max_edges=60),
       st.integers(min_value=0, max_value=24),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_sssp_random_weighted_graphs(data, source_pick, weight_seed):
    n, src, dst = data
    graph = from_edge_arrays(src, dst, num_vertices=n)
    from repro.graph import with_random_weights

    weighted = with_random_weights(graph, seed=weight_seed)
    source = source_pick % n
    algorithm = make_algorithm("sssp")
    state = algorithm.init(weighted, source=source)
    while state.frontier and state.iteration < 1000:
        state.frontier = algorithm.step(weighted, state)
        state.iteration += 1
    assert np.allclose(state.values, reference_sssp(weighted, source))


# ----------------------------------------------------------------------
# All four FSteal backends: feasibility + mutual agreement
# ----------------------------------------------------------------------
@st.composite
def fsteal_rect_instances(draw, max_frag=7, max_work=5):
    """Rectangular instances probing the solver edge cases:

    zero-workload rows, forbidden (inf-cost) cells up to whole columns,
    and the single-worker degenerate case.
    """
    n_frag = draw(st.integers(min_value=1, max_value=max_frag))
    n_work = draw(st.integers(min_value=1, max_value=max_work))
    cells = draw(
        st.lists(st.floats(min_value=0.2, max_value=5.0),
                 min_size=n_frag * n_work, max_size=n_frag * n_work)
    )
    costs = 1e-9 * np.asarray(cells).reshape(n_frag, n_work)
    forbid = draw(
        st.lists(st.booleans(), min_size=n_frag * n_work,
                 max_size=n_frag * n_work)
    )
    costs[np.asarray(forbid).reshape(n_frag, n_work)] = np.inf
    for i in range(n_frag):  # every fragment keeps one allowed worker
        if not np.isfinite(costs[i]).any():
            costs[i, draw(st.integers(0, n_work - 1))] = 1e-9
    loads = np.asarray(
        draw(st.lists(st.integers(0, 2000), min_size=n_frag,
                      max_size=n_frag)),
        dtype=np.int64,
    )
    zero_rows = draw(
        st.lists(st.booleans(), min_size=n_frag, max_size=n_frag)
    )
    loads[np.asarray(zero_rows)] = 0
    return FStealProblem(costs, loads)


@given(fsteal_rect_instances())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_all_solvers_feasible_and_agree(problem):
    """Every backend returns a feasible plan; objectives agree.

    ``highs`` solves the MILP exactly, so it sets the optimum; the
    heuristics must land within 1.5x of it (measured worst case over
    randomized instances is ~1.23x for greedy, ~1.19x for lp/bnb).
    """
    from repro.core import SOLVERS, make_solver

    objectives = {}
    for name in sorted(SOLVERS):
        solution = make_solver(name).solve(problem)
        problem.validate_assignment(solution.assignment)
        assert np.all(solution.assignment.sum(axis=1)
                      == problem.workloads)
        objectives[name] = solution.objective
    optimal = objectives["highs"]
    if problem.workloads.sum() == 0:
        assert all(obj == 0.0 for obj in objectives.values())
        return
    assert optimal >= 0.0
    for name, obj in objectives.items():
        assert obj >= optimal - 1e-15, (
            f"{name} beat the exact optimum: {obj} < {optimal}"
        )
        assert obj <= 1.5 * optimal + 1e-15, (
            f"{name} is {obj / max(optimal, 1e-30):.2f}x optimal"
        )
