"""Unit tests for interconnect topologies."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.hardware import (
    LinkSpec,
    NVLINK_LANE_GBPS,
    PCIE_GBPS,
    Topology,
    dgx1,
    fully_connected,
    ring_topology,
    single_gpu,
)


def test_dgx1_lane_matrix_properties(topology8):
    lanes = topology8.lane_matrix
    assert lanes.shape == (8, 8)
    assert np.array_equal(lanes, lanes.T)
    assert np.all(np.diag(lanes) == 0)
    # DGX-1V: exactly six NVLink lanes per GPU
    assert np.all(lanes.sum(axis=1) == 6)


def test_dgx1_has_unlinked_pairs(topology8):
    # the paper's motivating example: 0 and 7 share no direct link
    assert topology8.lane_matrix[0, 7] == 0


def test_direct_bandwidth(topology8):
    assert topology8.direct_bandwidth(0, 3) == 2 * NVLINK_LANE_GBPS
    assert topology8.direct_bandwidth(0, 1) == NVLINK_LANE_GBPS
    assert topology8.direct_bandwidth(0, 7) == PCIE_GBPS
    assert topology8.direct_bandwidth(2, 2) == pytest.approx(
        topology8.gpu.local_bandwidth_gbps
    )


def test_effective_bandwidth_uses_transit(topology8):
    # 0-7 has no link, but 0-3 (2 lanes) then 3-7 (2 lanes) gives a
    # 2-hop path of 50 GB/s bottleneck -> 25 GB/s effective > PCIe
    assert topology8.effective_bandwidth(0, 7) == pytest.approx(25.0)
    assert topology8.effective_bandwidth(0, 7) > PCIE_GBPS


def test_effective_bandwidth_symmetric(topology8):
    eff = topology8.effective_bandwidth_matrix()
    assert np.allclose(eff, eff.T)
    assert np.all(eff >= PCIE_GBPS)


def test_effective_never_below_direct(topology8):
    eff = topology8.effective_bandwidth_matrix()
    direct = topology8.direct_bandwidth_matrix()
    assert np.all(eff >= direct - 1e-9)


def test_find_ring_dgx1(topology8):
    ring = topology8.find_ring()
    assert ring is not None
    assert sorted(ring) == list(range(8))
    lanes = topology8.lane_matrix
    for idx in range(8):
        a, b = ring[idx], ring[(idx + 1) % 8]
        assert lanes[a, b] > 0


def test_find_ring_missing_for_five_gpu_subset():
    assert dgx1(5).find_ring() is None


def test_subset_renumbers():
    sub = dgx1(4)
    assert sub.num_gpus == 4
    assert sub.lane_matrix[0, 3] == dgx1(8).lane_matrix[0, 3]
    with pytest.raises(TopologyError):
        dgx1(9)
    with pytest.raises(TopologyError):
        dgx1(8).subset([0, 0, 1])


def test_aggregate_bandwidth(topology8):
    total = topology8.aggregate_bandwidth(range(8))
    # 24 lanes in the hybrid cube mesh
    assert total == pytest.approx(24 * NVLINK_LANE_GBPS)
    pair = topology8.aggregate_bandwidth([0, 3])
    assert pair == pytest.approx(2 * NVLINK_LANE_GBPS)
    assert topology8.aggregate_bandwidth([0]) == 0.0


def test_aggregate_bandwidth_memo_answers_from_each_topologys_lanes(
    topology8,
):
    group = [0, 1, 2, 3]
    healthy = topology8.aggregate_bandwidth(group)
    # the memo key is the member tuple: any sequence of the same ids
    assert topology8.aggregate_bandwidth(tuple(group)) == healthy
    assert topology8.aggregate_bandwidth(iter(group)) == healthy
    # the lanes it was computed from cannot change under it ...
    with pytest.raises(ValueError):
        topology8.lane_matrix[0, 1] = 0
    # ... and a degraded link is a new topology with its own memo
    degraded = topology8.with_degraded_link(0, 1, lanes=0)
    lost = topology8.lane_matrix[0, 1] * NVLINK_LANE_GBPS
    assert degraded.aggregate_bandwidth(group) == pytest.approx(
        healthy - lost
    )
    assert topology8.aggregate_bandwidth(group) == healthy


def test_ring_topology_preset():
    ring = ring_topology(4, lanes=2)
    assert ring.find_ring() is not None
    assert ring.direct_bandwidth(0, 1) == 2 * NVLINK_LANE_GBPS
    assert ring.direct_bandwidth(0, 2) == PCIE_GBPS
    two = ring_topology(2)
    assert two.lane_matrix[0, 1] == 2


def test_fully_connected_preset():
    full = fully_connected(4)
    assert np.all(full.lane_matrix + np.eye(4, dtype=int) >= 1)
    assert full.find_ring() is not None


def test_single_gpu_preset():
    single = single_gpu()
    assert single.num_gpus == 1
    assert single.find_ring() == [0]
    assert single.effective_bandwidth_matrix().shape == (1, 1)


def test_subset_single_member(topology8):
    sub = topology8.subset([5])
    assert sub.num_gpus == 1
    assert sub.lane_matrix.shape == (1, 1)
    assert sub.effective_bandwidth_matrix().shape == (1, 1)
    # self-bandwidth is HBM, not interconnect
    assert sub.effective_bandwidth(0, 0) == pytest.approx(
        sub.gpu.local_bandwidth_gbps
    )


def test_subset_disconnected_member(topology8):
    # 0 and 7 share no NVLink in the cube mesh; a {0, 7} subset keeps
    # both reachable over PCIe (no path through the dropped GPUs)
    sub = topology8.subset([0, 7])
    assert sub.num_gpus == 2
    assert sub.lane_matrix[0, 1] == 0
    assert sub.effective_bandwidth(0, 1) == pytest.approx(PCIE_GBPS)


def test_degraded_link_loses_lanes(topology8):
    degraded = topology8.with_degraded_link(0, 3, lanes=1)
    assert topology8.lane_matrix[0, 3] == 2  # original untouched
    assert degraded.lane_matrix[0, 3] == 1
    assert degraded.lane_matrix[3, 0] == 1
    assert degraded.direct_bandwidth(0, 3) == NVLINK_LANE_GBPS
    # every other link is untouched
    mask = np.ones((8, 8), dtype=bool)
    mask[0, 3] = mask[3, 0] = False
    assert np.array_equal(degraded.lane_matrix[mask],
                          topology8.lane_matrix[mask])


def test_degraded_link_to_zero_reroutes(topology8):
    dead = topology8.with_degraded_link(0, 1, lanes=0)
    assert dead.lane_matrix[0, 1] == 0
    assert dead.direct_bandwidth(0, 1) == PCIE_GBPS
    # multi-hop transit still beats PCIe on the remaining fabric
    assert dead.effective_bandwidth(0, 1) > PCIE_GBPS
    assert dead.effective_bandwidth(0, 1) < topology8.effective_bandwidth(
        0, 1
    )


def test_degraded_link_validation(topology8):
    with pytest.raises(TopologyError):
        topology8.with_degraded_link(2, 2)
    with pytest.raises(TopologyError):
        topology8.with_degraded_link(0, 9)
    with pytest.raises(TopologyError):
        topology8.with_degraded_link(0, 1, lanes=-1)


def test_degraded_then_subset_composes(topology8):
    # chaos re-derives steal paths from subset-of-degraded topologies;
    # the two transforms must compose without touching the original
    combo = topology8.with_degraded_link(0, 3, lanes=0).subset(range(4))
    assert combo.num_gpus == 4
    assert combo.lane_matrix[0, 3] == 0
    assert combo.lane_matrix[0, 1] == topology8.lane_matrix[0, 1]


def test_link_validation():
    with pytest.raises(TopologyError):
        LinkSpec(0, 0, 1)
    with pytest.raises(TopologyError):
        LinkSpec(0, 1, -1)
    with pytest.raises(TopologyError, match="out of range"):
        Topology(2, [LinkSpec(0, 5, 1)])
    with pytest.raises(TopologyError):
        Topology(0)
