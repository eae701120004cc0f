"""Edge-cut partitioning: structures, partitioners, quality metrics."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.partition.base": ("Partition",),
    "repro.partition.partitioners": (
        "random_partition", "segmented_partition", "metis_like_partition",
        "make_partition", "PARTITIONERS",
    ),
    "repro.partition.quality": (
        "PartitionQuality", "evaluate_partition", "edge_balance",
        "edge_cut_fraction", "replication_factor",
    ),
})
