#!/usr/bin/env python3
"""Under the hood: topologies, cost matrices, and a hand-rolled FSteal.

Shows the library as a toolkit: inspect the NVLink topology the way
the stealing algorithms see it, build the paper's cost coefficients
``c_ij = 1/B_ij + g(W_i)`` by hand, solve one FSteal instance with
different backends, and walk the OSteal reduction tree.

Run:  python examples/topology_and_stealing.py
"""

import numpy as np

import repro
from repro import config
from repro.core import (
    FStealProblem,
    OracleCostModel,
    ReductionTree,
    build_cost_matrix,
    make_solver,
)
from repro.graph.features import frontier_features
from repro.hardware import measure_comm_cost_matrix
from repro.runtime import Frontier, select_vertices


def main() -> None:
    topology = repro.dgx1(8)
    np.set_printoptions(precision=1, suppress=True, linewidth=120)

    print("== The machine (paper Figure 2 class) ==")
    print("NVLink lanes between GPU pairs:")
    print(topology.lane_matrix)
    print("\neffective bandwidth (GB/s), multi-hop transit allowed:")
    print(topology.effective_bandwidth_matrix())
    print(f"\nGPU0 <-> GPU7 have no direct link, but transit gives "
          f"{topology.effective_bandwidth(0, 7):.0f} GB/s "
          f"(PCIe fallback would be 12)")

    print("\n== One FSteal instance, by hand ==")
    graph = repro.datasets.load("SW")
    partition = repro.random_partition(graph, 8, seed=0)
    # pretend iteration frontier: a skewed slice of the vertex space
    rng = np.random.default_rng(0)
    frontier = Frontier(rng.integers(0, graph.num_vertices, 4000))
    fragments = frontier.split_by_owner(partition.owner, 8, graph)
    workloads = np.array([f.work(graph) for f in fragments])
    print(f"per-fragment workloads l_i: {workloads} "
          f"(max/min = {workloads.max() / max(1, workloads.min()):.2f}x)")

    comm = measure_comm_cost_matrix(topology, config.BYTES_PER_EDGE)
    features = [
        frontier_features(graph, f.vertices) for f in fragments
    ]
    costs = build_cost_matrix(
        comm, features, OracleCostModel(), np.arange(8)
    )
    print(f"cost coefficients c_ij (ns/edge):")
    print(costs * 1e9)

    problem = FStealProblem(costs, workloads)
    static = np.diag(workloads)
    print(f"\nno stealing        : makespan "
          f"{problem.objective(static) * 1e3:.3f} ms")
    for backend in ("greedy", "lp", "highs"):
        solution = make_solver(backend).solve(problem)
        print(f"solver {backend:7s}     : makespan "
              f"{solution.objective * 1e3:.3f} ms")

    solution = make_solver("lp").solve(problem)
    moved = int(
        solution.assignment.sum() - np.trace(solution.assignment)
    )
    print(f"edges moved off their home GPU: {moved} "
          f"({moved / max(1, workloads.sum()):.0%})")
    spans = select_vertices(graph, fragments[0], solution.assignment[0])
    print("fragment 0 realized as consecutive slices:",
          [(worker, stop - start, edges)
           for worker, edges, start, stop in spans])

    print("\n== The OSteal reduction tree (paper Figure 4b) ==")
    tree = ReductionTree(topology)
    print("merge sequence (victim -> thief):", tree.merge_sequence)
    for m in (8, 6, 4, 2, 1):
        print(f"  group size {m}: active {tree.active_workers(m)}, "
              f"ownership {tree.ownership(m).tolist()}")


if __name__ == "__main__":
    main()
