"""Groute's intra- and cross-fragment edge sets against the masked round.

``GrouteEngine`` splits a graph's edges once per run into two
``CSRGraph`` edge sets, intra- and cross-fragment, and relaxes each over
its own set. ``MaskedGroute`` below is the round as it was before the
split: boolean masks over the full graph's CSR positions, a masked
``local_step``, and the ring exchange over every out-edge of the round's
updated vertices with ``int64`` fragment keys. Float ``min`` is exact
and each edge set keeps CSR order, so the two agree bit for bit: the
values and every round's wall seconds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms import make_algorithm
from repro.baselines import GrouteEngine
from repro.graph import from_edge_arrays
from repro.hardware import dgx1
from repro.hardware.topology import ring_topology
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.partition import Partition
from repro.runtime import Frontier
from repro.runtime.envelope import RunEnvelope


class MaskedGroute(GrouteEngine):
    """The monotone round over per-edge masks of the full graph."""

    def run(self, graph, partition, algorithm, **params):
        algorithm = make_algorithm(algorithm)
        sources = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64),
            np.diff(graph.indptr),
        )
        owner = partition.owner.astype(np.int64)
        intra = owner[sources] == owner[graph.indices]
        state = algorithm.init(graph, **params)
        envelope = RunEnvelope(
            "groute", algorithm, graph, self.topology.num_gpus, state,
            NULL_TRACER, NULL_METRICS,
        )
        while state.frontier and envelope.rounds < self._max_rounds:
            envelope.fold(self._masked_round(
                graph, owner, algorithm, state, envelope.rounds,
                intra, ~intra,
            ))
        return envelope.close()

    def _masked_round(self, graph, owner, algorithm, state, round_index,
                      intra_mask, cross_mask):
        num_workers = self.topology.num_gpus
        round_frontier = state.frontier
        busy = np.zeros(num_workers)
        features = [
            part.features(graph)
            for part in round_frontier.split_by_owner(owner, num_workers)
        ]
        substep_cap = (self._local_substeps if algorithm.needs_weights
                       else self._max_rounds)
        updated_parts = []
        frontier = round_frontier
        local_edges = substep = 0
        while frontier and substep < substep_cap:
            updated_parts.append(frontier.vertices)
            parts = frontier.split_by_owner(owner, num_workers)
            for fragment, part in enumerate(parts):
                if part:
                    busy[fragment] += self._local_seconds(
                        fragment,
                        int(graph.out_degrees(part.vertices).sum()),
                        features[fragment], launches=1,
                    )
            local_edges += frontier.work(graph)
            frontier = algorithm.local_step(graph, state, frontier,
                                            intra_mask)
            substep += 1
        deferred = frontier
        if deferred:
            updated_parts.append(deferred.vertices)
        all_updated = Frontier(np.concatenate(updated_parts))
        comm, cross_count = self._full_ring_exchange(graph, owner,
                                                     all_updated)
        state.frontier = algorithm.local_step(
            graph, state, all_updated, cross_mask
        ).union(deferred)
        return self._round_record(
            round_index, round_frontier.size, local_edges + cross_count,
            busy, comm, cross_count,
        )

    def _full_ring_exchange(self, graph, owner, frontier):
        sources, destinations, __ = frontier.gather(graph)
        n = self.topology.num_gpus
        messages = np.bincount(
            owner[sources] * n + owner[destinations], minlength=n * n
        ).reshape(n, n)
        ring = self.ring
        return (
            self._ring_comm_seconds(messages[np.ix_(ring, ring)]),
            int(sources.size - np.trace(messages)),
        )


def _same_run(engine_kwargs, topology, graph, owner, algorithm, **params):
    """Run both engines on one partition; assert bit-identical runs."""
    partition = Partition(graph, owner, topology.num_gpus)
    split = GrouteEngine(topology, **engine_kwargs).run(
        graph, partition, algorithm, **params)
    masked = MaskedGroute(topology, **engine_kwargs).run(
        graph, partition, algorithm, **params)
    assert split.values.tobytes() == masked.values.tobytes()
    assert ([record.wall_seconds for record in split.iterations]
            == [record.wall_seconds for record in masked.iterations])
    assert ([record.frontier_edges for record in split.iterations]
            == [record.frontier_edges for record in masked.iterations])
    return split


@st.composite
def groute_cases(draw):
    """A small graph (self-loops and duplicate edges allowed), a GPU
    count that may exceed its vertices, and an owner map that may leave
    fragments without vertices or edges."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 40))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src, dst = draw(ids), draw(ids)
    weights = draw(st.lists(st.floats(0.25, 8.0), min_size=m, max_size=m))
    gpus = draw(st.integers(1, 8))
    owner = draw(st.lists(st.integers(0, gpus - 1), min_size=n,
                          max_size=n))
    algorithm = draw(st.sampled_from(["bfs", "sssp", "wcc"]))
    substeps = draw(st.integers(1, 4))
    graph = from_edge_arrays(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        num_vertices=n,
        weights=(np.asarray(weights) if algorithm == "sssp" else None),
    )
    return graph, gpus, np.asarray(owner), algorithm, substeps


@settings(max_examples=60, deadline=None)
@given(groute_cases())
def test_edge_sets_match_the_masked_round(case):
    graph, gpus, owner, algorithm, substeps = case
    params = {} if algorithm == "wcc" else {"source": 0}
    _same_run({"local_substeps": substeps}, dgx1(gpus), graph, owner,
              algorithm, **params)


def test_weighted_rounds_hit_the_substep_cap():
    # a 30-vertex path in one fragment: the cap of 2 waves defers work
    n = 30
    graph = from_edge_arrays(np.arange(n - 1), np.arange(1, n), n,
                             weights=np.full(n - 1, 0.5))
    result = _same_run({"local_substeps": 2}, dgx1(2), graph,
                       np.zeros(n, dtype=np.int64), "sssp", source=0)
    assert result.num_iterations == 15


def test_ring_keys_past_a_byte_at_twenty_fragments():
    # fragment 19 -> 18 fuses to key 398, which a one-byte key would
    # wrap onto 7 -> 2 and double the load of that pair's links
    topology = ring_topology(20)
    n = 20
    src = np.array([19, 19, 7, 0, 5], dtype=np.int64)
    dst = np.array([18, 3, 2, 19, 5], dtype=np.int64)
    graph = from_edge_arrays(src, dst, n)
    owner = np.arange(n)
    partition = Partition(graph, owner, n)
    assert partition.owner.dtype == np.uint8
    engine = GrouteEngine(topology)
    comm, cross = engine._ring_exchange(graph, partition, Frontier.full(n))
    messages = np.zeros((n, n), dtype=np.int64)
    np.add.at(messages, (src, dst), 1)
    ring = engine.ring
    assert cross == 4
    assert comm == engine._ring_comm_seconds(messages[np.ix_(ring, ring)])
    _same_run({}, topology, graph, owner, "bfs", source=19)
