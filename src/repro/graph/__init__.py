"""Graph substrate: CSR structure, builders, generators, properties.

Public surface of the graph subpackage::

    from repro.graph import CSRGraph, from_edges, rmat, degree_summary
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graph.csr": ("CSRGraph",),
    "repro.graph.builders": (
        "from_edges", "from_edge_arrays", "symmetrize", "remove_self_loops",
        "coalesce_duplicates", "load_edge_list", "load_matrix_market",
        "save_edge_list",
    ),
    "repro.graph.generators": (
        "rmat", "erdos_renyi", "grid_2d", "road_network", "web_graph",
        "small_world", "star", "path_graph", "complete_graph",
        "with_random_weights",
    ),
    "repro.graph.properties": (
        "DegreeSummary", "degree_summary", "gini_coefficient",
        "degree_entropy", "bfs_levels", "pseudo_diameter",
    ),
    "repro.graph.datasets": ("DATASETS", "DatasetSpec", "dataset_names", "load"),
    "repro.graph.traversal": (
        "k_hop_neighborhood", "induced_subgraph", "filter_by_degree",
        "ego_network", "top_degree_vertices",
    ),
    "repro.graph.features": (
        "FrontierFeatures", "frontier_features", "FEATURE_NAMES",
    ),
    "repro.graph.gather": ("gather_edges", "gather_edge_positions"),
    "repro.graph.io_npz": (
        "save_graph", "load_graph", "save_partition", "load_partition",
    ),
})
