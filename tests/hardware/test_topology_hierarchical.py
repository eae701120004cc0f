"""Hierarchical (multi-node) topology invariants.

The two-level stealing design relies on the topology keeping its link
classes straight: intra-node traffic must never be priced on the IB
fabric, cross-node traffic must never borrow NVLink rates, and the
node groupings must survive every transformation (subset, degraded
links, chaos composition).
"""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.hardware import Topology, cluster, dgx1, parse_topology
from repro.hardware.spec import (
    ETHERNET_GBPS,
    IB_LANE_GBPS,
    LinkSpec,
    NVLINK_LANE_GBPS,
)


@pytest.fixture(scope="module")
def cluster2x4():
    return cluster(2, 4)


def _cross_node_mask(topology):
    nodes = topology.node_assignment
    return nodes[:, None] != nodes[None, :]


class TestLinkClasses:
    def test_intra_node_never_routes_over_inter_node_links(self):
        """Intra-node effective bandwidth ignores the IB fabric.

        A cluster with a monster 100-rail fabric must price GPU pairs
        inside one node exactly like the railless cluster: NVLink paths
        never transit another node, whatever the fabric looks like.
        """
        thin = cluster(2, 4, ib_rails=1)
        fat = cluster(2, 4, ib_rails=100)
        cross = _cross_node_mask(thin)
        thin_eff = thin.effective_bandwidth_matrix()
        fat_eff = fat.effective_bandwidth_matrix()
        np.testing.assert_array_equal(thin_eff[~cross], fat_eff[~cross])

    def test_cross_node_pairs_capped_at_fabric_class(self, cluster2x4):
        """No cross-node pair can beat its node pair's IB rails."""
        cross = _cross_node_mask(cluster2x4)
        eff = cluster2x4.effective_bandwidth_matrix()
        rails = cluster2x4.inter_node_lane_matrix.max()
        assert (eff[cross] <= rails * IB_LANE_GBPS).all()
        # ... and NVLink-class rates stay strictly intra-node
        assert (eff[cross] < NVLINK_LANE_GBPS).all()

    def test_intra_node_matches_single_server(self, cluster2x4):
        """Each node's block equals the standalone 4-GPU server."""
        server = dgx1(4).effective_bandwidth_matrix()
        eff = cluster2x4.effective_bandwidth_matrix()
        for node in range(cluster2x4.num_nodes):
            members = cluster2x4.node_members(node)
            np.testing.assert_array_equal(
                eff[np.ix_(members, members)], server
            )

    def test_railless_cluster_falls_back_to_ethernet(self):
        bare = cluster(2, 2, ib_rails=0)
        cross = _cross_node_mask(bare)
        eff = bare.effective_bandwidth_matrix()
        np.testing.assert_array_equal(
            eff[cross], np.full(cross.sum(), ETHERNET_GBPS)
        )

    def test_nvlink_links_may_not_cross_nodes(self):
        with pytest.raises(TopologyError, match="crosses nodes"):
            Topology(
                4,
                links=[LinkSpec(0, 2, 1)],
                node_of=[0, 0, 1, 1],
            )


class TestGroupingPreservation:
    def test_subset_preserves_groupings(self, cluster2x4):
        """Cutting one GPU per node keeps both nodes, renumbered."""
        sub = cluster2x4.subset([0, 1, 2, 4, 5])
        assert sub.num_nodes == 2
        assert list(sub.node_assignment) == [0, 0, 0, 1, 1]
        # IB rails survive the cut on the surviving node pair
        assert sub.inter_node_lane_matrix[0, 1] == \
            cluster2x4.inter_node_lane_matrix[0, 1]

    def test_subset_within_one_node_collapses_to_single_node(
        self, cluster2x4
    ):
        sub = cluster2x4.subset(cluster2x4.node_members(1))
        assert sub.num_nodes == 1

    def test_subset_renumbers_nodes_compactly(self):
        topo = cluster(3, 2)
        sub = topo.subset([0, 4, 5])  # nodes 0 and 2 survive
        assert sub.num_nodes == 2
        assert list(sub.node_assignment) == [0, 1, 1]

    def test_degraded_intra_node_link_preserves_groupings(
        self, cluster2x4
    ):
        hurt = cluster2x4.with_degraded_link(0, 3, lanes=0)
        assert hurt.num_nodes == cluster2x4.num_nodes
        np.testing.assert_array_equal(
            hurt.node_assignment, cluster2x4.node_assignment
        )
        np.testing.assert_array_equal(
            hurt.inter_node_lane_matrix,
            cluster2x4.inter_node_lane_matrix,
        )

    def test_degraded_inter_node_pair_drops_rails(self, cluster2x4):
        """Degrading a cross-node GPU pair degrades the node pair."""
        hurt = cluster2x4.with_degraded_link(0, 4, lanes=0)
        assert hurt.inter_node_lane_matrix[0, 1] == 0
        cross = _cross_node_mask(hurt)
        eff = hurt.effective_bandwidth_matrix()
        np.testing.assert_array_equal(
            eff[cross], np.full(cross.sum(), ETHERNET_GBPS)
        )
        # the NVLink fabric inside each node is untouched
        np.testing.assert_array_equal(
            hurt.lane_matrix, cluster2x4.lane_matrix
        )

    def test_chaos_degrade_composes_with_hierarchy(self, cluster2x4):
        """degrade -> subset -> degrade keeps the class separation."""
        hurt = cluster2x4.with_degraded_link(1, 2, lanes=1)
        sub = hurt.subset([0, 1, 2, 4, 5])
        again = sub.with_degraded_link(0, 3, lanes=0)
        assert again.num_nodes == 2
        cross = _cross_node_mask(again)
        eff = again.effective_bandwidth_matrix()
        # cross-node entries never exceed the fabric class even after
        # two rounds of damage and a renumbering
        assert (eff[cross] <= IB_LANE_GBPS).all()
        assert (eff[~cross & ~np.eye(5, dtype=bool)] >= eff[cross].max()).all()


class TestClusterPreset:
    def test_cluster_1xk_matches_dgx1(self):
        one = cluster(1, 6)
        ref = dgx1(6)
        np.testing.assert_array_equal(one.lane_matrix, ref.lane_matrix)
        assert one.num_nodes == 1

    def test_cluster_validation(self):
        with pytest.raises(TopologyError, match="at least one node"):
            cluster(0, 4)
        with pytest.raises(TopologyError, match="1..8"):
            cluster(2, 9)
        with pytest.raises(TopologyError, match="negative"):
            cluster(2, 4, ib_rails=-1)


class TestParseTopology:
    def test_none_and_dgx1_default(self):
        assert parse_topology(None).name == "dgx1"
        assert parse_topology("dgx1", num_gpus=4).num_gpus == 4
        assert parse_topology("default").num_gpus == 8

    def test_nodes_selector(self):
        topo = parse_topology("nodes=2x4")
        assert topo.name == "cluster2x4"
        assert topo.num_gpus == 8
        assert topo.num_nodes == 2

    def test_passthrough_instance(self, cluster2x4):
        assert parse_topology(cluster2x4) is cluster2x4

    def test_rejects_unknown_selector(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            parse_topology("torus=3x3")

    def test_rejects_gpu_count_mismatch(self):
        with pytest.raises(TopologyError, match="num_gpus=6"):
            parse_topology("nodes=2x4", num_gpus=6)


def test_two_level_stealing_crosses_nodes_and_the_ledger_agrees():
    """On two 4-GPU nodes GUM steals across the node boundary, and the
    ``steal.inter_node_edges`` counter is the ledger's per-decision
    ``inter_node_stolen_edges`` summed."""
    import repro
    from repro.bench import pick_source, prepare_graph
    from repro.obs import MetricsRegistry

    graph = prepare_graph("TX", "bfs")
    registry = MetricsRegistry()
    result = repro.run(graph, "bfs", engine="gum", num_gpus=8,
                       topology="nodes=2x4", metrics=registry,
                       source=pick_source("TX"))
    stolen = registry.counter("steal.inter_node_edges").total()
    assert stolen > 0
    assert stolen == sum(
        entry.get("inter_node_stolen_edges", 0)
        for entry in result.ledger.entries
    )
