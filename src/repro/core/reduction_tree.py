"""The OSteal reduction tree (Section IV-A, Figure 4b).

Enumerating every ownership-stealing policy is combinatorial
(``sum_i C(n,i) * i^(n-i)``); the paper collapses the search to a fixed
folding order derived from the NVLink topology: pair GPUs along their
widest links, evict one of each pair, recurse on the survivors. The
residual network keeps the largest aggregate bandwidth, and OSteal only
has to choose *how far down the tree to fold* (the group size ``m``).

One fold serves every machine. A single server is a one-node cluster:
each node's survivors fold over NVLink, then the node representatives
fold over the IB rails. A degraded machine is the same fold over its
survivors, with dead fragments following their heirs.

:class:`ReductionTree` precomputes the full merge sequence — a list of
``(victim, thief)`` events — so that ``ownership(m)`` and
``active_workers(m)`` are O(n) lookups at decision time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.hardware.topology import Topology

__all__ = ["ReductionTree"]


class ReductionTree:
    """Bandwidth-greedy folding order for a (possibly degraded) machine.

    Levels are built by maximum-weight perfect matching on the direct
    lane counts among survivors (brute force — at most 8 GPUs per
    node, 105 matchings). Within a level, pairs merge cheapest-loss
    first, so intermediate group sizes (the 8 -> 6 -> 4 -> 1 walk of
    Figure 9) also retain maximal bandwidth. In each merged pair the
    survivor is the endpoint whose links to the other survivors are
    wider.

    The fold is two-level: every node folds its survivors with
    level-synchronous NVLink matchings (one round per level, nodes in
    ascending order), so no pair is matched across the IB fabric; then
    each node's last survivor — its *representative* — folds with the
    others, weighted by the node pair's IB rail count.

    Parameters
    ----------
    topology:
        The machine, in original GPU ids.
    alive:
        Surviving workers (default: every GPU). Only survivors fold;
        group sizes beyond the survivor count clamp to it — the
        degraded machine simply has fewer rungs to unfold.
    heirs:
        Dead worker -> the survivor that inherited its fragments at
        eviction time. Chains resolve through later deaths.
    """

    def __init__(
        self,
        topology: Topology,
        alive: Optional[Sequence[int]] = None,
        heirs: Optional[Dict[int, int]] = None,
    ) -> None:
        self._topology = topology
        self._n = n = topology.num_gpus
        self._alive = (
            list(range(n)) if alive is None else sorted(int(w) for w in alive)
        )
        heirs = heirs or {}
        holders = []
        for holder in range(n):
            # death is monotone within a run, so the chain cannot cycle
            while holder in heirs:
                holder = heirs[holder]
            holders.append(holder)
        self._holders = np.asarray(holders, dtype=np.int64)
        survivors = set(self._alive)
        groups = [
            [g for g in topology.node_members(node) if g in survivors]
            for node in range(topology.num_nodes)
        ]
        groups = [group for group in groups if group]
        self._merges: List[Tuple[int, int]] = _fold(
            groups, topology.lane_matrix
        )
        # the fold consumed each group down to its node's representative
        representatives = sorted(group[0] for group in groups)
        nodes = topology.node_assignment
        rep_lanes = np.zeros((n, n), dtype=np.int64)
        rep_nodes = nodes[representatives]
        rep_lanes[np.ix_(representatives, representatives)] = (
            topology.inter_node_lane_matrix[np.ix_(rep_nodes, rep_nodes)]
        )
        self._merges += _fold([list(representatives)], rep_lanes)
        # the two-level policy: while two or more nodes have survivors,
        # only a representative may take another node's frontier; on a
        # single surviving node every survivor steals freely
        self._forbidden: Optional[np.ndarray] = None
        if len(groups) > 1:
            self._representatives = representatives
            is_rep = np.zeros(n, dtype=bool)
            is_rep[representatives] = True
            self._forbidden = (
                (nodes[:, None] != nodes[None, :]) & ~is_rep[None, :]
            )
        else:
            self._representatives = list(self._alive)
        # cache: clamped group size -> (ownership vector, active list)
        self._cache: dict[int, Tuple[np.ndarray, List[int]]] = {}

    @property
    def topology(self) -> Topology:
        """The topology this tree folds."""
        return self._topology

    @property
    def merge_sequence(self) -> List[Tuple[int, int]]:
        """``(victim, thief)`` events over the survivors; applying the
        first ``survivors - m`` yields the group of size ``m``."""
        return list(self._merges)

    @property
    def representatives(self) -> List[int]:
        """Workers allowed to steal across nodes, sorted: one per node
        with survivors, or every survivor once a single node is left."""
        return list(self._representatives)

    def restrict(
        self, costs: np.ndarray, fragment_home: np.ndarray
    ) -> np.ndarray:
        """Apply the two-level policy to a cost matrix, in place.

        Sets ``inf`` on every (fragment, worker) pair that would haul
        the frontier across the IB fabric into a non-representative;
        workers on the fragment's home node steal freely. A no-op on
        one node.
        """
        if self._forbidden is not None:
            homes = np.asarray(fragment_home[: len(costs)], dtype=np.int64)
            costs[self._forbidden[homes]] = np.inf
        return costs

    # ------------------------------------------------------------------
    def ownership(self, group_size: int) -> np.ndarray:
        """Fragment -> worker vector ``O`` for a target group size.

        Dead fragments start at their heir; applying the first merges
        then moves a victim's fragments to the thief's own final owner
        (thieves of one level can be victims of a later one).
        """
        ownership, __ = self._resolve(group_size)
        return ownership.copy()

    def active_workers(self, group_size: int) -> List[int]:
        """Sorted surviving worker ids at a target group size."""
        __, active = self._resolve(group_size)
        return list(active)

    def _resolve(self, group_size: int) -> Tuple[np.ndarray, List[int]]:
        if not 1 <= group_size <= self._n:
            raise TopologyError(
                f"group size {group_size} out of range 1..{self._n}"
            )
        size = min(group_size, len(self._alive))
        if size not in self._cache:
            ownership = self._holders.copy()
            active = set(self._alive)
            for victim, thief in self._merges[: len(self._alive) - size]:
                ownership[ownership == victim] = thief
                active.discard(victim)
            self._cache[size] = (ownership, sorted(active))
        return self._cache[size]


def _fold(
    groups: List[List[int]], lanes: np.ndarray
) -> List[Tuple[int, int]]:
    """Fold every group to one survivor; returns the merge events.

    Groups advance level-synchronously — each runs one matching round
    per level, in list order — and are consumed in place. A round
    merges its pairs losing the least residual bandwidth first.
    """
    merges: List[Tuple[int, int]] = []
    while any(len(group) > 1 for group in groups):
        for group in groups:
            pairs = _max_weight_matching(group, lanes)

            def loss(pair: Tuple[int, int], group=group) -> int:
                victim = _pick_victim(pair, group, lanes)
                return int(sum(lanes[victim, s] for s in group if s != victim))

            for a, b in sorted(pairs, key=loss):
                victim = _pick_victim((a, b), group, lanes)
                merges.append((victim, b if victim == a else a))
                group.remove(victim)
    return merges


def _pick_victim(
    pair: Tuple[int, int], survivors: Sequence[int], lanes: np.ndarray
) -> int:
    """Evict the endpoint less connected to the other survivors."""
    a, b = pair
    a_bw = sum(lanes[a, s] for s in survivors if s not in pair)
    b_bw = sum(lanes[b, s] for s in survivors if s not in pair)
    if a_bw != b_bw:
        return a if a_bw < b_bw else b
    return max(a, b)  # tie: keep the lower id (it coordinates)


def _max_weight_matching(
    nodes: Sequence[int], lanes: np.ndarray
) -> List[Tuple[int, int]]:
    """Brute-force maximum-weight (near-)perfect matching.

    Odd node counts leave one node unmatched. Weights are direct lane
    counts; PCIe-only pairs weigh 0 but may still be matched when
    nothing better exists (folding must always be possible).
    """
    nodes = list(nodes)
    if len(nodes) <= 1:
        return []
    best_pairs: List[Tuple[int, int]] = []
    best_weight = -1.0

    def recurse(
        remaining: Tuple[int, ...], acc: List[Tuple[int, int]], weight: float
    ) -> None:
        nonlocal best_pairs, best_weight
        if len(remaining) <= 1:
            if weight > best_weight:
                best_weight = weight
                best_pairs = list(acc)
            return
        first, rest = remaining[0], remaining[1:]
        for idx in range(len(rest)):
            partner = rest[idx]
            acc.append((first, partner))
            recurse(
                rest[:idx] + rest[idx + 1:],
                acc,
                weight + float(lanes[first, partner]),
            )
            acc.pop()
        if len(remaining) % 2 == 1:
            # leave `first` unmatched (odd survivor)
            recurse(rest, acc, weight)

    recurse(tuple(nodes), [], 0.0)
    return best_pairs
