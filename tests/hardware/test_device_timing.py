"""Unit tests for the device model, timing model, and micro-benchmark."""

import numpy as np
import pytest

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


#: ``(features, jitter)`` captured with CPython 3.11; the first is the
#: first fragment frontier TX/bfs@4 prices
NOISE_PINS = [
    (feats(size=1, edges=4), 1.0237917439442747),
    (feats(gini=0.2, entropy=0.5, out_range=2.0, in_range=2.0, size=50,
           edges=200), 1.0254100653302998),
    (feats(gini=0.4, entropy=0.5), 1.0155047670854949),
    (FrontierFeatures(12.5, 37.25, 900.0, 1500.0, 0.83, 0.61, 12345,
                      460000), 1.007402868020185),
    (feats(avg_in=1.0, avg_out=1.0, size=1, edges=1), 0.991159574043775),
]


def test_pseudo_noise_is_pinned():
    """The ground-truth jitter seeds a generator from ``hash()`` of a
    float tuple; every golden in the suite depends on it."""
    device = DeviceModel()
    drifted = [
        (features, device._pseudo_noise(features), expected)
        for features, expected in NOISE_PINS
        if device._pseudo_noise(features) != expected
    ]
    assert drifted == [], (
        "DeviceModel._pseudo_noise drifted from its pinned values "
        "(features, got, pinned): this interpreter's hash() of a float "
        "tuple differs from CPython 3.11's, so every ground-truth cost "
        f"and every golden built on one will differ too: {drifted}"
    )


def test_first_uniform_is_numpys_first_draw():
    """The noise draw's integer re-derivation of the first
    ``Generator.random()``, over edge seeds (one and two entropy words,
    the largest the noise key makes) and thousands of random ones."""
    from repro.hardware.device import first_uniform

    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 2] + np.random.default_rng(
        5).integers(0, 2**63 - 1, size=3000).tolist()
    assert [first_uniform(seed) for seed in seeds] == [
        np.random.default_rng(seed).random() for seed in seeds
    ]


def test_empty_frontier_cost_is_base():
    device = DeviceModel()
    cost = device.true_edge_cost(FrontierFeatures.empty())
    assert cost == pytest.approx(device.gpu.base_edge_cost_ns * 1e-9)


def test_oracle_callable():
    device = DeviceModel()
    oracle = device.oracle()
    f = feats(gini=0.5)
    assert oracle(f) == device.true_edge_cost(f)


def _count_noise(monkeypatch) -> list:
    """The features of every ``_pseudo_noise`` evaluation, in order."""
    seen = []
    original = DeviceModel._pseudo_noise

    def counting(self, features):
        seen.append(features)
        return original(self, features)

    monkeypatch.setattr(DeviceModel, "_pseudo_noise", counting)
    return seen


def test_equal_features_share_one_evaluation(monkeypatch):
    seen = _count_noise(monkeypatch)
    device = DeviceModel()
    a, b = feats(gini=0.4, entropy=0.5), feats(gini=0.4, entropy=0.5)
    assert a is not b
    assert device.true_edge_cost(a) == device.true_edge_cost(b)
    assert seen == [a]


def test_memo_bound_clears_the_memo(monkeypatch):
    seen = _count_noise(monkeypatch)
    device = DeviceModel()
    bound = DeviceModel._MEMO_BOUND
    assert bound == 4096
    first = feats(size=1)
    for size in range(1, bound + 1):
        device.true_edge_cost(feats(size=size))
    device.true_edge_cost(first)
    assert len(seen) == bound
    device.true_edge_cost(feats(size=bound + 1))  # full: cleared first
    assert len(device._cost_memo) == 1
    device.true_edge_cost(first)
    assert len(seen) == bound + 2


def test_gum_run_evaluates_each_distinct_features_once(monkeypatch):
    """TX/bfs@4 prices 32 distinct fragment frontiers with 28 distinct
    noise keys; each key's seed pays the generator draw once however
    often the audit and pricing meet it."""
    import repro
    from repro.graph import datasets

    seeds = []
    draw = DeviceModel._draw_noise

    def counting(self, seed):
        seeds.append(seed)
        return draw(self, seed)

    monkeypatch.setattr(DeviceModel, "_draw_noise", counting)
    repro.run(datasets.load("TX"), "bfs", num_gpus=4)
    assert len(seeds) == len(set(seeds)) == 28


def test_features_sharing_a_noise_key_share_one_draw(monkeypatch):
    seeds = []
    draw = DeviceModel._draw_noise
    monkeypatch.setattr(
        DeviceModel, "_draw_noise",
        lambda self, seed: seeds.append(seed) or draw(self, seed),
    )
    device = DeviceModel()
    # entropy and the ranges are not part of the noise key
    a = feats(gini=0.3, entropy=0.2)
    b = feats(gini=0.3, entropy=0.7, out_range=5.0)
    assert device._pseudo_noise(a) == device._pseudo_noise(b)
    assert len(seeds) == 1
    assert device.true_edge_cost(a) != device.true_edge_cost(b)


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
