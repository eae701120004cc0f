"""Scaled-down stand-ins for the paper's benchmark graphs (Table II).

The paper evaluates on fifteen real graphs from three domains. Those
graphs total billions of edges and are not redistributable here, so this
registry generates synthetic stand-ins that preserve each graph's
*regime* — the properties the paper's results actually hinge on:

* relative size ordering within and across domains,
* degree skew (social >> web >> road),
* diameter class (social ~10, web ~25-400, road ~1000+ in the paper;
  proportionally scaled here).

Every stand-in is roughly 1000x smaller than its original so the whole
evaluation matrix runs on a laptop. Set ``REPRO_SCALE`` (see
:mod:`repro.config`) to grow them uniformly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List

from repro import config
from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import CSRGraph

# The registry is read without building a graph (the CLI's ``--graph``
# choices), so each builder imports the generator it calls.

__all__ = ["DatasetSpec", "DATASETS", "dataset_names", "load", "load_many"]


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata binding a Table-II graph to its synthetic stand-in."""

    abbr: str
    original_name: str
    domain: str  # "SN" (social), "WG" (web), "RN" (road)
    original_vertices: str
    original_edges: str
    original_diameter: int
    builder: Callable[[], CSRGraph]

    def build(self) -> CSRGraph:
        """Generate the stand-in graph (deterministic)."""
        graph = self.builder()
        return graph.with_name(self.abbr)


def _s(n: int) -> int:
    return config.scaled(n)


def _rmat_scale(scale: int) -> int:
    """R-MAT scale grown with ``REPRO_SCALE``: ``2**scale`` vertices
    times the nearest power of two to the factor (unchanged at 1)."""
    return max(1, scale + round(math.log2(config.benchmark_scale())))


def _social(scale: int, edge_factor: int, seed: int, skew: float = 0.57):
    def build() -> CSRGraph:
        from repro.graph import generators

        return generators.rmat(
            _rmat_scale(scale), edge_factor=edge_factor, a=skew,
            b=(1 - skew) / 2.2, c=(1 - skew) / 2.2, seed=seed,
        )

    return build


def _web(n: int, out_degree: int, locality: float, window: int, seed: int):
    def build() -> CSRGraph:
        from repro.graph import generators

        return generators.web_graph(
            _s(n), out_degree=out_degree, locality=locality,
            window=window, seed=seed,
        )

    return build


def _road(rows: int, cols: int, seed: int):
    # Long, thin, (near-)planar lattices: the row count scales with
    # REPRO_SCALE while the column count fixes the diameter class.
    # Shortcuts are disabled — a handful of random long links would
    # collapse the diameter and with it the long-tail regime.
    def build() -> CSRGraph:
        from repro.graph import generators

        factor = config.benchmark_scale()
        return generators.road_network(
            max(6, int(rows * factor)), cols, seed=seed,
            shortcut_fraction=0.0,
        )

    return build


#: Registry in Table II order. Vertex/edge strings describe the ORIGINAL
#: graph (for documentation); the builders produce ~1000x smaller twins.
DATASETS: Dict[str, DatasetSpec] = {
    spec.abbr: spec
    for spec in [
        # --- Social networks: R-MAT, heavy skew, tiny diameter ---
        DatasetSpec("LJ", "soc-LiveJournal1", "SN", "4.85M", "85.7M", 13,
                    _social(13, 12, seed=101)),
        DatasetSpec("OR", "soc-orkut", "SN", "3.00M", "213M", 7,
                    _social(13, 24, seed=102)),
        DatasetSpec("SW", "soc-sinaweibo", "SN", "58.7M", "523M", 5,
                    _social(15, 6, seed=103, skew=0.62)),
        DatasetSpec("TW", "soc-twitter-2010", "SN", "21.3M", "530M", 15,
                    _social(14, 16, seed=104)),
        DatasetSpec("CF", "com-friendster", "SN", "65M", "1.8B", 32,
                    _social(15, 16, seed=105)),
        # --- Web graphs: copying model, moderate skew and diameter ---
        DatasetSpec("U2", "uk-2002", "WG", "18.5M", "524M", 25,
                    _web(20_000, 12, locality=0.80, window=256, seed=201)),
        DatasetSpec("AR", "arabic-2005", "WG", "22.7M", "1.11B", 28,
                    _web(24_000, 16, locality=0.82, window=256, seed=202)),
        DatasetSpec("IT", "it-2004", "WG", "41M", "1.15B", 24,
                    _web(40_000, 14, locality=0.80, window=384, seed=203)),
        DatasetSpec("U5", "uk-2005", "WG", "39.5M", "1.57B", 23,
                    _web(40_000, 16, locality=0.82, window=384, seed=204)),
        # webbase is the odd one out among web graphs: diameter 379 in
        # the original — deep crawl chains — so its stand-in pushes
        # locality to the extreme.
        DatasetSpec("WB", "webbase-2001", "WG", "118M", "1.71B", 379,
                    _web(96_000, 8, locality=0.9997, window=10, seed=205)),
        # --- Road networks: perturbed lattices, degree ~3, huge diameter ---
        # Row counts are deliberately tiny: the LT regime requires the
        # per-iteration frontier work to be small against the fixed
        # synchronization cost p*m, as on the paper's testbed where
        # road compute is trivial next to thousands of sync rounds.
        DatasetSpec("TX", "roadNet-TX", "RN", "1.3M", "1.9M", 1054,
                    _road(6, 140, seed=301)),
        DatasetSpec("CA", "roadNet-CA", "RN", "1.9M", "2.7M", 849,
                    _road(6, 205, seed=302)),
        DatasetSpec("GM", "germany-osm", "RN", "11M", "12M", 1277,
                    _road(7, 410, seed=303)),
        DatasetSpec("USA", "road-USA", "RN", "23M", "29M", 1452,
                    _road(8, 550, seed=304)),
        DatasetSpec("EU", "europe-osm", "RN", "50M", "54M", 2037,
                    _road(10, 800, seed=305)),
    ]
}


def dataset_names(domain: str = "") -> List[str]:
    """All abbreviations, optionally filtered by domain (SN/WG/RN)."""
    return [
        abbr
        for abbr, spec in DATASETS.items()
        if not domain or spec.domain == domain
    ]


@functools.lru_cache(maxsize=None)
def load(abbr: str) -> CSRGraph:
    """Build (and cache) the stand-in graph for a Table-II abbreviation."""
    spec = DATASETS.get(abbr)
    if spec is None:
        raise GraphError(
            f"unknown dataset {abbr!r}; known: {sorted(DATASETS)}"
        )
    return spec.build()


def load_many(abbrs) -> Dict[str, CSRGraph]:
    """Build several stand-ins at once, keyed by abbreviation."""
    return {abbr: load(abbr) for abbr in abbrs}
