"""Out-of-core multi-node scale benchmarks: the ``scale.*`` family.

The timed cases in :mod:`repro.bench.perfharness` pin per-call
hot-path latency; this family of measured cases pins the *capacity*
story instead: a generated rmat20-class graph is sharded to disk,
opened under a resident-byte budget at most ``1/8`` of its CSR
payload, and driven through full BFS / PageRank runs on single-node
and multi-node (hierarchical two-level stealing) shapes. Each case
reports and gates

* virtual ``ms_per_edge`` — deterministic, so the harness matches it
  against the committed ``benchmarks/scale/baseline.json`` across
  hosts;
* ``peak_resident_bytes`` — the shard cache's high-water mark, which
  must stay under the budget;
* the out-of-core wall overhead per shard load — the sharded run's
  extra wall seconds over the in-core run on the same host, divided
  by the shard loads that caused them — gated at an absolute
  :data:`WALL_SECONDS_PER_SHARD_LOAD` so the verdict does not depend
  on how fast the host runs the in-core arm;
* bit-identity of results and virtual time between the in-core and
  sharded runs (the equivalence contract, re-checked on the real
  workload);
* ``inter_node_stolen_edges`` on multi-node shapes, proving the
  hierarchy actually engaged.

CLI: ``python -m repro bench --filter scale`` (see
``docs/performance.md``); CI runs the ``scale.bfs.2x4`` smoke case and
uploads ``BENCH_scale.json``.
"""

from __future__ import annotations

import functools
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.bench.perfharness import BENCH_CASES, BenchCase

__all__ = [
    "WALL_SECONDS_PER_SHARD_LOAD",
    "MIN_CAPACITY_RATIO",
    "ScaleCase",
    "SCALE_CASES",
    "run_scale_case",
    "scale_violations",
    "scale_summary",
]

#: Extra sharded wall seconds per shard load allowed over in-core.
#: Measured on a 2-core VM: ``scale.bfs.2x4`` (90 loads) paid 1.18 and
#: 1.57 ms in two back-to-back runs, where the old 25 % relative gate
#: read 18.1 % and 24.3 %; the six cases of one ``--filter scale`` run
#: paid 0.9-1.7 ms, and 1.9-2.4 ms with other processes on the cores.
#: The committed baseline's host paid up to 4.3 ms. The bound is over
#: 2x the slowest of those.
WALL_SECONDS_PER_SHARD_LOAD = 10e-3

#: The CSR payload must be at least this many times the shard budget,
#: so the benchmark genuinely exercises out-of-core paging.
MIN_CAPACITY_RATIO = 8


@dataclass(frozen=True)
class ScaleCase:
    """One out-of-core scale benchmark cell."""

    name: str
    algorithm: str
    num_nodes: int
    gpus_per_node: int
    graph_scale: int = 20
    edge_factor: int = 8
    num_shards: int = 16
    max_rounds: Optional[int] = None  # PageRank round cap

    @property
    def num_gpus(self) -> int:
        """Total worker count across the cluster."""
        return self.num_nodes * self.gpus_per_node


SCALE_CASES: Dict[str, ScaleCase] = {}

for _nodes, _gpn in ((1, 4), (2, 4), (4, 4)):
    for _algo in ("bfs", "pr"):
        _name = f"scale.{_algo}.{_nodes}x{_gpn}"
        SCALE_CASES[_name] = ScaleCase(
            name=_name,
            algorithm=_algo,
            num_nodes=_nodes,
            gpus_per_node=_gpn,
            max_rounds=5 if _algo == "pr" else None,
        )


@functools.lru_cache(maxsize=2)
def _scale_graph(graph_scale: int, edge_factor: int):
    """The shared rmat20-class input (cached)."""
    from repro.graph.generators import rmat

    return rmat(
        graph_scale, edge_factor, seed=20,
        name=f"rmat{graph_scale}x{edge_factor}",
    )


@functools.lru_cache(maxsize=None)
def _shard_dir(graph_scale: int, edge_factor: int, num_shards: int) -> Path:
    """Shard the input to a temp directory once per (graph, shards)."""
    from repro.graph.io_npz import save_graph_sharded

    graph = _scale_graph(graph_scale, edge_factor)
    workdir = Path(tempfile.mkdtemp(prefix="repro-scale-"))
    return save_graph_sharded(
        graph,
        workdir / f"{graph.name}-{num_shards}.shards",
        num_shards=num_shards,
    )


def _case_params(case: ScaleCase, graph) -> dict:
    if case.algorithm in ("bfs", "sssp"):
        # deterministic non-isolated source, as the paper fixes per graph
        return {"source": int(np.argmax(graph.out_degrees()))}
    if case.algorithm == "pr":
        return {"max_rounds": case.max_rounds or 5}
    return {}


@functools.lru_cache(maxsize=None)
def _warm_up(algorithm: str, num_nodes: int, gpus_per_node: int) -> None:
    """One small untimed run per (algorithm, shape).

    Pays the process-wide one-time costs (imports, comm-cost matrix
    microbenches, solver setup) outside the timed region; the first
    in-core arm would otherwise absorb seconds of warmup and make the
    sharded arm look faster than the storage difference explains.
    """
    import repro
    from repro.graph.generators import rmat
    from repro.hardware.topology import cluster

    graph = rmat(12, 8, seed=1)
    params = (
        {"source": int(np.argmax(graph.out_degrees()))}
        if algorithm in ("bfs", "sssp") else {"max_rounds": 2}
    )
    repro.run(graph, algorithm, engine="gum",
              topology=cluster(num_nodes, gpus_per_node), **params)


def _timed_run(graph, case: ScaleCase, topology, params):
    import repro

    started = time.perf_counter()
    result = repro.run(
        graph, case.algorithm, engine="gum", topology=topology, **params
    )
    return result, time.perf_counter() - started


def run_scale_case(case: ScaleCase) -> dict:
    """In-core vs sharded run of one case; returns its report entry."""
    from repro.graph.io_npz import open_graph_sharded
    from repro.hardware.topology import cluster

    graph = _scale_graph(case.graph_scale, case.edge_factor)
    shard_path = _shard_dir(
        case.graph_scale, case.edge_factor, case.num_shards
    )
    csr_bytes = int(graph.indptr.nbytes + graph.indices.nbytes)
    budget = csr_bytes // MIN_CAPACITY_RATIO
    topology = cluster(case.num_nodes, case.gpus_per_node)
    params = _case_params(case, graph)

    _warm_up(case.algorithm, case.num_nodes, case.gpus_per_node)
    in_core, wall_in_core = _timed_run(graph, case, topology, params)
    sharded_graph = open_graph_sharded(shard_path, resident_bytes=budget)
    sharded, wall_sharded = _timed_run(
        sharded_graph, case, topology, params
    )

    cache = sharded_graph.cache_stats()
    bit_identical = bool(
        np.array_equal(in_core.values, sharded.values)
        and in_core.total_ms == sharded.total_ms
        and in_core.num_iterations == sharded.num_iterations
    )
    inter_node = 0
    if sharded.ledger is not None:
        inter_node = sum(
            int(entry.get("inter_node_stolen_edges", 0))
            for entry in sharded.ledger.entries
        )
    edges = graph.num_edges
    entry = {
        "algorithm": case.algorithm,
        "nodes": case.num_nodes,
        "gpus_per_node": case.gpus_per_node,
        "num_gpus": case.num_gpus,
        "graph": graph.name,
        "num_edges": edges,
        "num_iterations": in_core.num_iterations,
        "csr_bytes": csr_bytes,
        "resident_budget_bytes": budget,
        "capacity_ratio": csr_bytes / max(1, budget),
        "shards": cache["shards"],
        "peak_resident_bytes": cache["peak_resident_bytes"],
        "shard_loads": cache["loads"],
        "shard_evictions": cache["evictions"],
        "virtual_total_ms": in_core.total_ms,
        "virtual_ms_per_edge": in_core.total_ms / edges,
        "wall_seconds_in_core": wall_in_core,
        "wall_seconds_sharded": wall_sharded,
        "wall_seconds_per_shard_load": (
            (wall_sharded - wall_in_core) / max(1, cache["loads"])
        ),
        "bit_identical": bit_identical,
        "inter_node_stolen_edges": inter_node,
    }
    entry["violations"] = scale_violations(entry)
    entry["summary"] = scale_summary(entry)
    return entry


def scale_summary(entry: dict) -> str:
    """The case's line in the ``repro bench`` table."""
    peak = entry["peak_resident_bytes"] / max(
        1, entry["resident_budget_bytes"]
    )
    return (
        f"v-ms/Medge {entry['virtual_ms_per_edge'] * 1e6:.4f}, "
        f"wall {entry['wall_seconds_per_shard_load'] * 1e3:+.2f} ms/load, "
        f"peak/budget {peak:.0%}, "
        f"inter-steal {entry['inter_node_stolen_edges']}"
    )


def scale_violations(entry: dict) -> List[str]:
    """Self-contained gate: the invariants every fresh run must hold."""
    problems = []
    if not entry["bit_identical"]:
        problems.append("sharded run is not bit-identical to in-core")
    if entry["peak_resident_bytes"] > entry["resident_budget_bytes"]:
        problems.append(
            f"peak shard-cache bytes {entry['peak_resident_bytes']} "
            f"exceed the {entry['resident_budget_bytes']}-byte budget"
        )
    if entry["capacity_ratio"] < MIN_CAPACITY_RATIO:
        problems.append(
            f"CSR is only {entry['capacity_ratio']:.1f}x the "
            f"resident budget (need >= {MIN_CAPACITY_RATIO}x)"
        )
    per_load = entry["wall_seconds_per_shard_load"]
    if per_load > WALL_SECONDS_PER_SHARD_LOAD:
        problems.append(
            f"sharded wall-clock is {per_load * 1e3:.2f} ms per shard "
            f"load over in-core (limit "
            f"{WALL_SECONDS_PER_SHARD_LOAD * 1e3:.0f} ms)"
        )
    if entry["nodes"] > 1 and entry["inter_node_stolen_edges"] == 0:
        problems.append(
            "multi-node run recorded no inter-node stolen edges; "
            "two-level stealing never engaged"
        )
    return problems


for _case in SCALE_CASES.values():
    BENCH_CASES[_case.name] = BenchCase(
        name=_case.name,
        setup=lambda case=_case: lambda: run_scale_case(case),
        meta={"on_demand": True,
              "deterministic": ["virtual_ms_per_edge"]},
        timed=False,
    )
