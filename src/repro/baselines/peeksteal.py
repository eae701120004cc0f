"""Classic reactive ("peek-and-grab") work stealing.

The paper's Exp-3 claims GUM balances better than "general work
stealing methods [that] follow the peek-and-grab style which relies on
the unpredictable behaviors of each worker at runtime". This module
implements that contrast class so the claim can be measured:

* no cost model, no MILP, no topology awareness;
* every worker starts on its own fragment's frontier;
* when a worker drains its queue it *peeks* at the most-loaded peer
  and *grabs* half of that peer's remaining edges, paying a fixed
  steal latency plus the remote-access tax on everything it stole.

The scheduler simulates that reactive process with the same estimated
per-edge costs a classic runtime would implicitly assume (uniform),
then emits the resulting assignment as an
:class:`~repro.runtime.scheduler.IterationPlan` — so it runs on the
identical engine and is priced by the identical ground truth as GUM's
planned stealing.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

import numpy as np

from repro import config as repro_config
from repro.hardware.microbench import measure_comm_cost_matrix
from repro.runtime.frontier import Frontier
from repro.runtime.scheduler import (
    IterationPlan,
    RunContext,
    Scheduler,
    realize_plan,
)

__all__ = ["PeekStealScheduler"]


class PeekStealScheduler(Scheduler):
    """Reactive work stealing: steal half from the most-loaded peer.

    Parameters
    ----------
    steal_latency_seconds:
        Fixed cost of one peek+grab round trip (queue inspection, CAS
        on the victim's queue, frontier copy kickoff). 50 us default —
        an optimistic figure for a GPU-to-GPU handshake.
    min_steal_edges:
        Don't bother stealing below this (simulated) edge count.
    assumed_edge_cost:
        The uniform per-edge cost the reactive heuristic assumes while
        simulating who finishes when (classic stealers have no cost
        model — that is the point being measured).
    """

    name = "peeksteal"

    def __init__(
        self,
        steal_latency_seconds: float = 50e-6,
        min_steal_edges: int = 64,
        assumed_edge_cost: float = 1e-6,
    ) -> None:
        self._latency = float(steal_latency_seconds)
        self._min_steal = int(min_steal_edges)
        self._assumed = float(assumed_edge_cost)
        self._comm_cost: np.ndarray | None = None

    def begin_run(self, context: RunContext) -> None:
        """Reset per-run state for a new execution."""
        self._comm_cost = measure_comm_cost_matrix(
            context.timing.topology, repro_config.BYTES_PER_EDGE
        )

    # ------------------------------------------------------------------
    def plan(
        self,
        iteration: int,
        fragment_frontiers: Sequence[Frontier],
        workloads: np.ndarray,
        context: RunContext,
    ) -> IterationPlan:
        """Produce this iteration's work assignment."""
        live = context.live_workers
        quotas, steals = self._simulate(
            workloads, context.fragment_worker, context.num_workers, live
        )
        plan = realize_plan(
            context, fragment_frontiers, workloads, quotas=quotas,
            active_workers=live,
            # the victims and thieves each pay the handshake latency;
            # it lands on the critical path of a reactive system
            decision_seconds=steals * self._latency,
            fsteal_applied=steals > 0,
        )
        plan.stolen_edges = sum(
            edges for __, __, edges, __, __
            in plan.stolen_rows(context.fragment_home)
        )
        return plan

    # ------------------------------------------------------------------
    def _simulate(
        self,
        workloads: np.ndarray,
        fragment_worker: np.ndarray,
        num_workers: int,
        live_workers: Sequence[int],
    ) -> tuple[np.ndarray, int]:
        """Event-driven reactive stealing; returns (x_ij quotas, steals).

        Every fragment starts queued on the worker responsible for it
        (``fragment_worker``). Workers *consume* their queues at the
        assumed uniform rate. When one drains, it grabs half of the
        remaining (unprocessed) edges of the worker that will finish
        last, from the back of that worker's deque — the classic
        Cilk-style discipline, blind to true costs and topology.
        Workers with nothing worth grabbing leave the pool; the
        simulation ends when everyone has. Only ``live_workers`` join
        the pool, so an evicted GPU never steals.
        """
        quotas = np.zeros((workloads.size, num_workers), dtype=np.int64)
        rate = self._assumed
        # per worker: [fragment, edges]
        queues: List[List[List[int]]] = [[] for __ in range(num_workers)]
        loads = np.zeros(num_workers, dtype=np.int64)
        epoch = np.zeros(num_workers)  # when this queue last changed
        for fragment, (worker, load) in enumerate(
            zip(fragment_worker.tolist(), workloads.tolist())
        ):
            if load > 0:
                queues[worker].append([fragment, load])
                loads[worker] += load
                quotas[fragment, worker] += load
        finish = loads * rate
        heap = [(finish[w], w) for w in live_workers]
        heapq.heapify(heap)
        steals = 0

        def consume_front(victim: int, now: float) -> None:
            """Commit the edges the victim processed up to ``now``."""
            if now <= epoch[victim]:
                return  # the victim is still in a steal handshake
            processed = int((now - epoch[victim]) / rate)
            epoch[victim] = now
            queue = queues[victim]
            while processed > 0 and queue:
                fragment, edges = queue[0]
                taken = min(edges, processed)
                processed -= taken
                if taken == edges:
                    queue.pop(0)
                else:
                    queue[0][1] -= taken

        while heap:
            now, worker = heapq.heappop(heap)
            if now != finish[worker]:
                continue  # stale event: this worker was re-scheduled
            victim = int(np.argmax(finish))
            if victim == worker:
                continue  # everyone else already finished
            # commit the victim's progress, then peek its actual queue
            consume_front(victim, min(now, finish[victim]))
            remaining_victim = sum(
                edges for __, edges in queues[victim]
            )
            loot = remaining_victim // 2
            if loot < self._min_steal:
                continue  # nothing worth grabbing: leave the pool
            steals += 1
            # grab from the back of the victim's deque
            grabbed: List[List[int]] = []
            remaining = loot
            while remaining > 0 and queues[victim]:
                fragment, edges = queues[victim][-1]
                take = min(edges, remaining)
                quotas[fragment, victim] -= take
                quotas[fragment, worker] += take
                grabbed.append([fragment, take])
                remaining -= take
                if take == edges:
                    queues[victim].pop()
                else:
                    queues[victim][-1][1] -= take
            taken_total = loot - remaining
            queues[worker] = grabbed
            epoch[worker] = now + self._latency
            finish[worker] = now + self._latency + taken_total * rate
            finish[victim] -= taken_total * rate
            heapq.heappush(heap, (finish[worker], worker))
            heapq.heappush(heap, (finish[victim], victim))
        return quotas, steals
