"""PageRank keeps one full frontier for the whole run.

Every vertex is active every round, so the frontier's edge gather, its
split by owner and its cross-worker message count are the same each
round. These counts pin that they are computed once per *run*: the
parent computed each once per superstep. They count calls, not
seconds, so any host agrees.
"""

import numpy as np
import pytest

import repro
import repro.runtime.frontier as frontier_module
from repro.graph import datasets


class _CountingNumpy:
    """``numpy`` as ``frontier.py`` sees it, counting ``argsort``."""

    def __init__(self) -> None:
        self.argsort_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, *args, **kwargs):
        self.argsort_calls += 1
        return np.argsort(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    """Call counts of the full-frontier gather and owner split."""
    counts = {"gather": 0, "split_features": 0}
    gather = frontier_module.gather_edge_positions
    features = frontier_module.frontier_features

    def counting_gather(graph, vertices):
        counts["gather"] += 1
        return gather(graph, vertices)

    def counting_features(graph, vertices, *boundaries):
        # only split_by_owner passes segment boundaries
        counts["split_features"] += bool(boundaries)
        return features(graph, vertices, *boundaries)

    numpy_proxy = _CountingNumpy()
    monkeypatch.setattr(frontier_module, "gather_edge_positions",
                        counting_gather)
    monkeypatch.setattr(frontier_module, "frontier_features",
                        counting_features)
    monkeypatch.setattr(frontier_module, "np", numpy_proxy)
    return counts, numpy_proxy


@pytest.mark.parametrize("rounds", [3, 8])
def test_full_frontier_is_expanded_and_split_once_per_run(counted, rounds):
    counts, numpy_proxy = counted
    result = repro.run(datasets.load("CF"), "pr", engine="gum",
                       num_gpus=8, max_rounds=rounds)
    assert result.num_iterations == rounds
    assert counts == {"gather": 1, "split_features": 1}
    assert numpy_proxy.argsort_calls == 1


@pytest.fixture
def message_counts(monkeypatch):
    """Calls that reach the memo-free message count."""
    import repro.backend as backend

    calls = []
    count = backend.count_messages

    def counting(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(backend, "count_messages", counting)
    return calls


def test_message_count_is_computed_once_per_run(message_counts):
    result = repro.run(datasets.load("CF"), "pr", engine="gum",
                       num_gpus=8, max_rounds=6)
    assert result.num_iterations == 6
    # one frontier, one worker map: counted once, then memo hits
    assert len(message_counts) == 1


def test_sparse_frontiers_still_count_every_superstep(message_counts):
    result = repro.run(datasets.load("TX"), "bfs", engine="gum",
                       num_gpus=4, source=0)
    # a new frontier every superstep: the memo never hides one
    assert len(message_counts) == result.num_iterations
