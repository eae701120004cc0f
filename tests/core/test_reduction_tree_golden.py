"""The reduction-tree fold, checked against a committed record.

``tests/core/reduction_tree_golden.json`` was generated at the commit
*before* the healthy, hierarchical and evicted folds became one
:class:`~repro.core.reduction_tree.ReductionTree`, from the three
classes the arbitrator composed then. One entry per machine: every
``dgx1(1..8)`` and ``cluster(2x2 / 2x4 / 3x2 / 4x2 / 4x4)`` healthy,
plus every eviction subset of ``dgx1(8)`` and ``cluster(2, 4)``. Each
records the merge sequence, the workers allowed to steal across nodes
(every survivor on one node), and ``ownership(m)`` /
``active_workers(m)`` for every ``m`` in ``1..num_gpus``.

Killed workers die in ascending id order; each one's heir is the
survivor with the highest effective bandwidth to it, lowest id on ties
— the rule of :meth:`repro.chaos.controller.ChaosController.heir_of`.

An intended change to the fold regenerates the record::

    PYTHONPATH=src python tests/core/test_reduction_tree_golden.py > tests/core/reduction_tree_golden.json
"""

import itertools
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core.reduction_tree import ReductionTree
from repro.hardware.topology import cluster, dgx1

RECORD = pathlib.Path(__file__).with_name("reduction_tree_golden.json")

SHAPES = {
    **{f"dgx1({k})": (lambda k=k: dgx1(k)) for k in range(1, 9)},
    **{
        f"cluster({nodes},{gpus})": (
            lambda nodes=nodes, gpus=gpus: cluster(nodes, gpus)
        )
        for nodes, gpus in ((2, 2), (2, 4), (3, 2), (4, 2), (4, 4))
    },
}

#: shapes whose every eviction subset is recorded
EVICTED = ("dgx1(8)", "cluster(2,4)")


def heirs_for(topology, killed) -> dict:
    """Kill ``killed`` in ascending order; heir = widest survivor."""
    eff = topology.effective_bandwidth_matrix()
    dead, heirs = set(), {}
    for worker in sorted(killed):
        dead.add(worker)
        alive = [w for w in range(topology.num_gpus) if w not in dead]
        heirs[worker] = max(alive, key=lambda w: (eff[worker, w], -w))
    return heirs


def entry(shape: str, killed=()) -> dict:
    """One record entry, from the current tree."""
    topology = SHAPES[shape]()
    n = topology.num_gpus
    alive = [w for w in range(n) if w not in set(killed)]
    heirs = heirs_for(topology, killed)
    tree = ReductionTree(topology, alive, heirs)
    return {
        "shape": shape,
        "killed": sorted(killed),
        "heirs": [[d, h] for d, h in sorted(heirs.items())],
        "merges": [list(m) for m in tree.merge_sequence],
        "representatives": tree.representatives,
        "ownership": [[int(o) for o in tree.ownership(m)]
                      for m in range(1, n + 1)],
        "active_workers": [tree.active_workers(m) for m in range(1, n + 1)],
    }


def cases():
    """``(shape, killed)`` of every recorded machine, in record order."""
    for shape in SHAPES:
        yield shape, ()
    for shape in EVICTED:
        n = SHAPES[shape]().num_gpus
        for size in range(1, n):
            yield from ((shape, k)
                        for k in itertools.combinations(range(n), size))


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_record_covers_every_case(record):
    assert [(e["shape"], tuple(e["killed"])) for e in record] == list(cases())
    # 13 healthy machines + 2 x (2^8 - 2) eviction subsets
    assert len(record) == 13 + 2 * 254


def test_fold_matches_record(record):
    mismatches = [(e["shape"], e["killed"]) for e in record
                  if entry(e["shape"], e["killed"]) != e]
    assert mismatches == []


def test_two_level_mask_matches_representatives(record):
    """``restrict`` forbids exactly the cross-node pairs whose worker is
    no representative (among survivors), and nothing on one node."""
    for e in record:
        topology = SHAPES[e["shape"]]()
        n = topology.num_gpus
        alive = [w for w in range(n) if w not in set(e["killed"])]
        tree = ReductionTree(topology, alive, dict(e["heirs"]))
        costs = tree.restrict(np.zeros((n, n)), np.arange(n))
        nodes = topology.node_assignment
        expected = np.zeros((n, n), dtype=bool)
        if len(set(nodes[alive].tolist())) > 1:
            reps = np.isin(np.arange(n), e["representatives"])
            expected = (nodes[:, None] != nodes[None, :]) & ~reps[None, :]
        assert (np.isinf(costs)[:, alive] == expected[:, alive]).all(), e


if __name__ == "__main__":
    lines = [json.dumps(entry(shape, killed), separators=(",", ":"))
             for shape, killed in cases()]
    sys.stdout.write("[\n" + ",\n".join(lines) + "\n]\n")
