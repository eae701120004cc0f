"""Unit tests for the device model, timing model, and micro-benchmark."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.graph.features import FrontierFeatures
from repro.hardware import (
    DeviceModel,
    GPUSpec,
    TimingModel,
    dgx1,
    measure_bandwidth_matrix,
    measure_comm_cost_matrix,
    single_gpu,
)
from repro.hardware.device import noise_key


def feats(gini=0.0, entropy=0.0, avg_out=4.0, out_range=0.0,
          avg_in=4.0, in_range=0.0, size=100, edges=400):
    return FrontierFeatures(
        avg_in_degree=avg_in, avg_out_degree=avg_out,
        in_degree_range=in_range, out_degree_range=out_range,
        gini=gini, entropy=entropy, size=size, total_edges=edges,
    )


# ----------------------------------------------------------------------
# DeviceModel
# ----------------------------------------------------------------------
def test_cost_is_positive_and_deterministic():
    device = DeviceModel()
    a = device.true_edge_cost(feats(gini=0.4, entropy=0.5))
    b = device.true_edge_cost(feats(gini=0.4, entropy=0.5))
    assert a == b
    assert a > 0


def test_contention_grows_with_skew():
    device = DeviceModel(noise_amplitude=0.0)
    low = device.true_edge_cost(feats(gini=0.1, entropy=0.5))
    high = device.true_edge_cost(feats(gini=0.9, entropy=0.5))
    assert high > 1.5 * low


def test_irregularity_raises_cost():
    device = DeviceModel(noise_amplitude=0.0)
    smooth = device.true_edge_cost(feats(out_range=0.0))
    jagged = device.true_edge_cost(feats(out_range=2000.0))
    assert jagged > smooth


def test_noise_is_bounded():
    device = DeviceModel(noise_amplitude=0.05)
    clean = DeviceModel(noise_amplitude=0.0)
    for gini in (0.1, 0.3, 0.7):
        noisy_cost = device.true_edge_cost(feats(gini=gini))
        clean_cost = clean.true_edge_cost(feats(gini=gini))
        assert abs(noisy_cost / clean_cost - 1.0) <= 0.05 + 1e-9


#: ``(features, noise key, jitter)``: zero, tiny and huge degrees, Gini
#: 0 and 1, size 1 and a size beyond 32 bits; the first is the first
#: fragment frontier TX/bfs@4 prices
NOISE_PINS = [
    (feats(size=1, edges=4),
     0xF9642CDB4F371A0E, 1.0284510881543547),
    (feats(avg_in=0.0, avg_out=0.0, size=1, edges=0),
     0x5692161D100B05E5, 0.9902899960763194),
    (feats(avg_in=4e-7, avg_out=6e-7, size=1, edges=1),
     0xC75BE07A863A390D, 1.016724740786352),
    (feats(avg_in=1e13, avg_out=2.5e14, out_range=1e15, size=1, edges=1),
     0x34711F27013C57FD, 0.9822910659993742),
    (feats(gini=1.0, entropy=1.0, size=1, edges=4),
     0x024EA70F165F0FB2, 0.9705407585821215),
    (feats(gini=0.2, entropy=0.5, out_range=2.0, in_range=2.0, size=50,
           edges=200),
     0x7B8542774619CEAE, 0.9989501278373483),
    (feats(gini=0.4, entropy=0.5),
     0xDBEA81573223A05F, 1.0215428209565),
    (FrontierFeatures(12.5, 37.25, 900.0, 1500.0, 0.83, 0.61, 12345,
                      460000),
     0x42576BEFBB950E03, 0.9855487868897534),
    (feats(avg_in=1.0, avg_out=1.0, size=2**40, edges=2**41),
     0xB6DCF320659F562C, 1.0128585355039261),
]


def test_pseudo_noise_is_pinned():
    """The ground-truth jitter is integer arithmetic on the rounded
    features; every golden in the suite depends on these bits."""
    device = DeviceModel()
    drifted = [
        (features, hex(noise_key(features)), device._pseudo_noise(features))
        for features, key, jitter in NOISE_PINS
        if (noise_key(features), device._pseudo_noise(features))
        != (key, jitter)
    ]
    assert drifted == [], (
        "DeviceModel's noise key drifted from its pinned values "
        f"(features, key, jitter): {drifted}"
    )


def test_noise_key_mixes_with_splitmix64():
    """The finalizer is splitmix64's: seeded with 0, its first output
    is the published 0xE220A8397B1DCDAF."""
    from repro.hardware.device import _GAMMA, _mix64

    assert _mix64(_GAMMA) == 0xE220A8397B1DCDAF


def test_device_model_calls_no_numpy():
    """``g*`` is libm and integer arithmetic: no NumPy loop, whose
    transcendentals differ in the last bit between SIMD levels, may
    enter the ground truth, scalar or array."""
    import ast
    import inspect

    import repro.hardware.device as device_module

    tree = ast.parse(inspect.getsource(device_module))
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in (node.names if isinstance(node, ast.Import)
                      else [ast.alias(node.module or "")])
    }
    assert imported.isdisjoint({"numpy", "scipy"}), imported
    calls = {
        node.func.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    }
    assert "math" in calls and calls.isdisjoint({"np", "numpy"}), calls


_FEATURES = st.builds(
    FrontierFeatures,
    avg_in_degree=st.floats(0.0, 1e7), avg_out_degree=st.floats(0.0, 1e7),
    in_degree_range=st.floats(0.0, 1e8),
    out_degree_range=st.floats(0.0, 1e8),
    gini=st.floats(0.0, 1.0), entropy=st.floats(0.0, 1.0),
    size=st.integers(1, 2**40), total_edges=st.integers(0, 2**41),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_FEATURES, max_size=70))
def test_table_costs_equal_per_feature_costs(frontiers):
    """One list evaluation (a superstep's table, an audit, a corpus)
    is each frontier's own ``g*``, in any batch and order."""
    device = DeviceModel()
    costs = device.edge_costs(frontiers)
    assert costs == [device.true_edge_cost(f) for f in frontiers]
    assert device.edge_costs(frontiers[::-1]) == costs[::-1]
    assert all(cost > 0 for cost in costs)


def test_empty_frontier_cost_is_base():
    device = DeviceModel()
    cost = device.true_edge_cost(FrontierFeatures.empty())
    assert cost == pytest.approx(device.gpu.base_edge_cost_ns * 1e-9)


def test_oracle_callable():
    device = DeviceModel()
    oracle = device.oracle()
    f = feats(gini=0.5)
    assert oracle(f) == device.true_edge_cost(f)


def test_features_sharing_a_noise_key_share_one_draw():
    device = DeviceModel()
    # entropy and the ranges are not part of the noise key
    a = feats(gini=0.3, entropy=0.2)
    b = feats(gini=0.3, entropy=0.7, out_range=5.0)
    assert noise_key(a) == noise_key(b)
    assert device._pseudo_noise(a) == device._pseudo_noise(b)
    assert device.true_edge_cost(a) != device.true_edge_cost(b)
    # the rounded fields and the size are
    assert len({noise_key(feats(gini=0.3, size=size))
                for size in range(1, 65)}) == 64
    assert noise_key(feats(gini=0.3)) != noise_key(feats(gini=0.300001))
    assert noise_key(feats(gini=0.3)) == noise_key(feats(gini=0.3000004))


# ----------------------------------------------------------------------
# TimingModel
# ----------------------------------------------------------------------
def test_sync_scales_with_workers(topology8):
    timing = TimingModel(topology8)
    s1 = timing.sync_seconds(1)
    s8 = timing.sync_seconds(8)
    spec = timing.sync
    assert s8 - s1 == pytest.approx(7 * spec.per_worker_us * 1e-6)
    assert timing.sync_seconds(0) == 0.0


def test_comm_cost_matches_bandwidth(topology8):
    timing = TimingModel(topology8)
    expected = config.BYTES_PER_EDGE / (
        topology8.effective_bandwidth(0, 3) * 1e9
    )
    assert timing.comm_seconds_per_edge(0, 3) == pytest.approx(expected)
    # local access is far cheaper than any remote access
    assert timing.comm_seconds_per_edge(0, 0) < 0.1 * (
        timing.comm_seconds_per_edge(0, 3)
    )


def test_compute_seconds_linear_in_edges(topology8):
    timing = TimingModel(topology8)
    f = feats()
    assert timing.compute_seconds(2000, f) == pytest.approx(
        2 * timing.compute_seconds(1000, f)
    )


def test_serialization_and_transfer(topology8):
    timing = TimingModel(topology8)
    assert timing.serialization_seconds(0) == 0.0
    assert timing.serialization_seconds(100) > 0
    assert timing.transfer_seconds(0, 3, 10**6) > 0
    assert timing.transfer_seconds(0, 0, 10**6) < timing.transfer_seconds(
        0, 7, 10**6
    )


def test_kernel_launch(topology8):
    timing = TimingModel(topology8)
    assert timing.kernel_launch_seconds(3) == pytest.approx(
        3 * topology8.gpu.kernel_launch_us * 1e-6
    )


# ----------------------------------------------------------------------
# Micro-benchmark
# ----------------------------------------------------------------------
def test_microbench_error_bounded(topology8):
    true = topology8.effective_bandwidth_matrix()
    measured = measure_bandwidth_matrix(topology8, seed=0, error=0.02)
    ratio = measured / true
    assert np.all(np.abs(ratio - 1.0) <= 0.021)
    assert np.allclose(measured, measured.T)
    # local figures are exact datasheet values
    assert np.allclose(np.diag(measured), np.diag(true))


def test_microbench_deterministic(topology8):
    a = measure_bandwidth_matrix(topology8, seed=1)
    b = measure_bandwidth_matrix(topology8, seed=1)
    c = measure_bandwidth_matrix(topology8, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_comm_cost_matrix(topology8):
    costs = measure_comm_cost_matrix(topology8, config.BYTES_PER_EDGE,
                                     seed=0)
    assert costs.shape == (8, 8)
    assert np.all(costs > 0)
    # remote pairs cost more than local access
    assert np.all(costs >= np.diag(costs).max() - 1e-15)


def test_custom_gpu_spec():
    spec = GPUSpec(base_edge_cost_ns=100.0, local_bandwidth_gbps=500.0)
    topo = single_gpu(gpu=spec)
    timing = TimingModel(topo)
    assert timing.comm_seconds_per_edge(0, 0) == pytest.approx(
        config.BYTES_PER_EDGE / (500.0 * 1e9)
    )
