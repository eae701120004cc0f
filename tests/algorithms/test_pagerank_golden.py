"""PageRank's dense round is pinned bit for bit.

The full frontier lives for the whole run, so its gather, owner split
and message count are memoized once per run, and the in-core scatter is
``np.bincount`` over that gather instead of ``np.add.at``. Neither may
move a single bit: the table below holds ``repr(total_ms)``, the round
count and a values digest of PageRank — and of the untouched sparse
``dpr`` — over engines, storage (in-core and sharded down to a one-shard
cache), amortization and machine shape, plus one ``kill_worker`` chaos
scenario. Regenerate (only for an intended change) with::

    PYTHONPATH=src python tests/algorithms/test_pagerank_golden.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.chaos import ChaosController, ChaosScenario
from repro.core import GumConfig
from repro.graph import (
    from_edge_arrays,
    open_graph_sharded,
    rmat,
    save_graph_sharded,
)

SCENARIO = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "scenarios" / "kill-worker.json"
)

GOLDEN = {
    'pr/gum/in-core/amortize/gpus8': ('291.67281618533866', 17, '341431a91bf7cbc7'),
    'pr/gum/in-core/amortize/nodes=2x4': ('292.653766882052', 17, '341431a91bf7cbc7'),
    'pr/gum/in-core/exact/gpus8': ('294.0408161853386', 17, '341431a91bf7cbc7'),
    'pr/gum/in-core/exact/nodes=2x4': ('295.021766882052', 17, '341431a91bf7cbc7'),
    'pr/gum/sharded/amortize/gpus8': ('291.67281618533866', 17, '341431a91bf7cbc7'),
    'pr/gum/sharded/amortize/nodes=2x4': ('292.653766882052', 17, '341431a91bf7cbc7'),
    'pr/gum/sharded/exact/gpus8': ('294.0408161853386', 17, '341431a91bf7cbc7'),
    'pr/gum/sharded/exact/nodes=2x4': ('295.021766882052', 17, '341431a91bf7cbc7'),
    'pr/gunrock/in-core/gpus8': ('413.12689074497473', 17, '341431a91bf7cbc7'),
    'pr/gunrock/in-core/nodes=2x4': ('413.32347256315654', 17, '341431a91bf7cbc7'),
    'pr/gunrock/sharded/gpus8': ('413.12689074497473', 17, '341431a91bf7cbc7'),
    'pr/gunrock/sharded/nodes=2x4': ('413.32347256315654', 17, '341431a91bf7cbc7'),
    'pr/bsp/in-core/gpus8': ('413.12689074497473', 17, '341431a91bf7cbc7'),
    'pr/bsp/in-core/nodes=2x4': ('413.32347256315654', 17, '341431a91bf7cbc7'),
    'pr/bsp/sharded/gpus8': ('413.12689074497473', 17, '341431a91bf7cbc7'),
    'pr/bsp/sharded/nodes=2x4': ('413.32347256315654', 17, '341431a91bf7cbc7'),
    'pr/gum/in-core/amortize/gpus8/kill-worker': ('357.10898599778244', 17, '341431a91bf7cbc7'),
    'dpr/gum/in-core/amortize/gpus8': ('885.3118390116199', 82, '4e643e234c1a5371'),
    'dpr/gum/in-core/amortize/nodes=2x4': ('898.7492623102171', 82, '4e643e234c1a5371'),
    'dpr/gum/in-core/exact/gpus8': ('896.44494252092', 82, '4e643e234c1a5371'),
    'dpr/gum/in-core/exact/nodes=2x4': ('922.4950170749462', 82, '4e643e234c1a5371'),
    'dpr/gum/sharded/amortize/gpus8': ('885.3118390116199', 82, '4e643e234c1a5371'),
    'dpr/gum/sharded/amortize/nodes=2x4': ('898.7492623102171', 82, '4e643e234c1a5371'),
    'dpr/gum/sharded/exact/gpus8': ('896.44494252092', 82, '4e643e234c1a5371'),
    'dpr/gum/sharded/exact/nodes=2x4': ('922.4950170749462', 82, '4e643e234c1a5371'),
    'dpr/gunrock/in-core/gpus8': ('1268.873724826544', 82, '4e643e234c1a5371'),
    'dpr/gunrock/in-core/nodes=2x4': ('1269.6286248265437', 82, '4e643e234c1a5371'),
    'dpr/gunrock/sharded/gpus8': ('1268.873724826544', 82, '4e643e234c1a5371'),
    'dpr/gunrock/sharded/nodes=2x4': ('1269.6286248265437', 82, '4e643e234c1a5371'),
    'dpr/bsp/in-core/gpus8': ('1268.873724826544', 82, '4e643e234c1a5371'),
    'dpr/bsp/in-core/nodes=2x4': ('1269.6286248265437', 82, '4e643e234c1a5371'),
    'dpr/bsp/sharded/gpus8': ('1268.873724826544', 82, '4e643e234c1a5371'),
    'dpr/bsp/sharded/nodes=2x4': ('1269.6286248265437', 82, '4e643e234c1a5371'),
    'dpr/gum/in-core/amortize/gpus8/kill-worker': ('1079.9321717301314', 82, '4e643e234c1a5371'),
}


def _cells():
    for algorithm in ("pr", "dpr"):
        for engine in ("gum", "gunrock", "bsp"):
            amortizes = (True, False) if engine == "gum" else (True,)
            for storage in ("in-core", "sharded"):
                for amortize in amortizes:
                    for shape in ("gpus8", "nodes=2x4"):
                        yield (algorithm, engine, storage, amortize, shape,
                               None)
        yield algorithm, "gum", "in-core", True, "gpus8", "kill-worker"


def _cell_id(cell) -> str:
    algorithm, engine, storage, amortize, shape, chaos = cell
    parts = [algorithm, engine, storage]
    if engine == "gum":
        parts.append("amortize" if amortize else "exact")
    return "/".join(parts + [shape] + ([chaos] if chaos else []))


def _graphs(root: Path):
    graph = rmat(11, 8, seed=5).with_name("rmat11")
    save_graph_sharded(graph, root / "rmat11.shards", num_shards=4)
    # budget of one byte: each shard load evicts the previous one
    return {
        "in-core": graph,
        "sharded": open_graph_sharded(root / "rmat11.shards",
                                      resident_bytes=1),
    }


def _run(graphs, cell) -> tuple:
    algorithm, engine, storage, amortize, shape, chaos = cell
    kwargs = {}
    if shape != "gpus8":
        kwargs["topology"] = shape
    if not amortize:
        kwargs["gum_config"] = GumConfig(amortize=False)
    if chaos:
        kwargs["chaos"] = ChaosController(ChaosScenario.from_file(SCENARIO))
    result = repro.run(graphs[storage], algorithm, engine=engine,
                       num_gpus=8, **kwargs)
    digest = hashlib.sha256(
        np.ascontiguousarray(result.values).tobytes()
    ).hexdigest()[:16]
    return repr(result.total_ms), result.num_iterations, digest


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    return _graphs(tmp_path_factory.mktemp("pagerank-golden"))


@pytest.mark.parametrize("cell", list(_cells()), ids=_cell_id)
def test_pagerank_cell_matches_golden(graphs, cell):
    assert _run(graphs, cell) == GOLDEN[_cell_id(cell)]


def test_golden_covers_every_cell():
    assert set(GOLDEN) == {_cell_id(cell) for cell in _cells()}


def _random_edges(seed: int):
    """A graph with duplicate edges, self-loops, isolated vertices and
    vertices without out-edges (the PageRank scatter's corner cases)."""
    rng = np.random.default_rng(seed)
    n = 300
    # vertices 250.. have no edges at all; 200..249 only receive
    sources = rng.integers(0, 200, size=4000)
    destinations = rng.integers(0, 250, size=4000)
    loops = rng.integers(0, 200, size=50)
    # the first 500 edges again: parallel edges
    sources = np.concatenate([sources, loops, sources[:500]])
    destinations = np.concatenate(
        [destinations, loops, destinations[:500]]
    )
    return from_edge_arrays(sources, destinations, num_vertices=n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bincount_scatter_is_add_at_byte_for_byte(seed):
    graph = _random_edges(seed)
    n = graph.num_vertices
    out_deg = graph.out_degrees()
    assert np.any(out_deg == 0) and np.any(graph.in_degrees() == 0)
    sources, destinations = graph.edge_array()
    assert np.any(sources == destinations)
    keys = sources * n + destinations
    assert np.unique(keys).size < keys.size
    rank = np.random.default_rng(seed + 10).random(n)
    contrib = np.where(out_deg == 0, 0.0, rank / np.maximum(out_deg, 1))
    legacy = np.zeros(n)
    np.add.at(legacy, destinations, contrib[sources])
    scattered = np.bincount(destinations, weights=contrib[sources],
                            minlength=n)
    assert scattered.dtype == legacy.dtype
    assert scattered.tobytes() == legacy.tobytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = _graphs(Path(tmp))
        sys.stdout.write("GOLDEN = {\n")
        for cell in _cells():
            sys.stdout.write(f"    {_cell_id(cell)!r}: {_run(table, cell)!r},\n")
        sys.stdout.write("}\n")
