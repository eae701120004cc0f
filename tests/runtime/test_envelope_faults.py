"""The run envelope counts the host's minor page faults, when asked.

A run with a metrics registry reads ``ru_minflt`` when its envelope
opens and when it closes and adds the difference to the
``engine.minor_faults`` counter; a run without a registry never reads
it.
"""

import pytest

import repro
import repro.runtime.envelope as envelope_module
from repro.obs import MetricsRegistry


@pytest.fixture
def rusage_calls(monkeypatch):
    calls = []
    real = envelope_module.resource.getrusage

    def counting(who):
        calls.append(who)
        return real(who)

    monkeypatch.setattr(envelope_module.resource, "getrusage", counting)
    return calls


@pytest.mark.parametrize("engine", ["gum", "groute"])
def test_observed_run_counts_its_minor_faults(rusage_calls, road_graph,
                                              engine):
    metrics = MetricsRegistry()
    repro.run(road_graph, "bfs", engine=engine, num_gpus=4, source=0,
              metrics=metrics)
    counter = metrics.snapshot()["engine.minor_faults"]
    assert counter["type"] == "counter"
    assert counter["total"] >= 0
    assert len(rusage_calls) == 2


def test_silent_run_does_not_read_the_fault_count(rusage_calls,
                                                  road_graph):
    repro.run(road_graph, "bfs", engine="gum", num_gpus=4, source=0)
    assert rusage_calls == []
