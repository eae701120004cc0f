"""Prometheus text exposition: mapping, sanitisation, stability."""

import pytest

from repro.errors import ReproError
from repro.obs import MetricsRegistry, prom_text, write_prom
from repro.obs.prom import prom_name


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.counter("engine.iterations").inc(3)
    reg.counter("steal.edges").inc(10, gpu=0)
    reg.counter("steal.edges").inc(20, gpu=1)
    reg.gauge("osteal.group_size").set(6)
    for value in (0.1, 0.2, 0.3, 0.4):
        reg.histogram("engine.wall_ms").observe(value)
    return reg


def test_name_sanitisation():
    assert prom_name("engine.wall_ms") == "repro_engine_wall_ms"
    assert prom_name("a b/c", prefix="") == "a_b_c"
    assert prom_name("9lives", prefix="") == "_9lives"
    assert prom_name("x", prefix="custom") == "custom_x"


def test_counter_mapping(registry):
    text = prom_text(registry.snapshot())
    assert "# TYPE repro_engine_iterations counter" in text
    assert "repro_engine_iterations 3" in text
    # labelled series render one sample per label set
    assert 'repro_steal_edges{gpu="0"} 10' in text
    assert 'repro_steal_edges{gpu="1"} 20' in text


def test_gauge_mapping(registry):
    text = prom_text(registry.snapshot())
    assert "# TYPE repro_osteal_group_size gauge" in text
    assert "repro_osteal_group_size 6" in text


def test_unset_gauge_is_skipped():
    reg = MetricsRegistry()
    reg.gauge("never.set")
    assert "never_set" not in prom_text(reg.snapshot())


def test_histogram_maps_to_summary(registry):
    text = prom_text(registry.snapshot())
    assert "# TYPE repro_engine_wall_ms summary" in text
    assert 'repro_engine_wall_ms{quantile="0.5"}' in text
    assert 'repro_engine_wall_ms{quantile="0.99"}' in text
    assert "repro_engine_wall_ms_count 4" in text
    assert "repro_engine_wall_ms_sum 1" in text
    assert "repro_engine_wall_ms_min 0.1" in text
    assert "repro_engine_wall_ms_max 0.4" in text


def test_pre_quantile_snapshot_still_renders():
    """Archived snapshots recorded before p50/p90/p99 existed must
    render without quantile samples rather than crash."""
    legacy = {"engine.wall_ms": {
        "type": "histogram", "count": 4, "sum": 1.0,
        "mean": 0.25, "min": 0.1, "max": 0.4,
        "decade_buckets": {"1e-1": 4},
    }}
    text = prom_text(legacy)
    assert "quantile=" not in text
    assert "repro_engine_wall_ms_count 4" in text


def test_archived_timeseries_is_skipped(registry):
    """Manifests recorded while the registry had a ``timeseries`` kind
    still render: the archived series is skipped, the rest unchanged."""
    snapshot = registry.snapshot()
    archived = dict(snapshot)
    archived["engine.wall_ms_series"] = {
        "type": "timeseries", "count": 2, "last": 0.7,
        "index": [0, 1], "values": [0.5, 0.7],
    }
    assert prom_text(archived) == prom_text(snapshot)


def test_output_is_deterministic(registry):
    snapshot = registry.snapshot()
    assert prom_text(snapshot) == prom_text(snapshot)
    assert prom_text(snapshot).endswith("\n")


def test_empty_snapshot_renders_empty():
    assert prom_text({}) == ""


def test_unknown_instrument_type_skipped():
    text = prom_text({"future.metric": {"type": "exotic", "value": 1}})
    assert text == ""


def test_write_prom(tmp_path, registry):
    path = tmp_path / "nested" / "metrics.prom"
    written = write_prom(path, registry.snapshot())
    assert written == path
    assert "repro_engine_iterations 3" in path.read_text()


def test_write_prom_unwritable(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    with pytest.raises(ReproError, match="cannot write Prometheus"):
        write_prom(target / "metrics.prom", {})
