"""Execution-backend interface: *where* supersteps physically run.

The BSP engine separates three concerns: the scheduler decides where
work runs in the *virtual* machine, the timing model prices that plan,
and the algorithm defines what is computed. The execution backend adds
a fourth, orthogonal axis — which host resources actually crunch the
arrays. :class:`~repro.backend.serial.SerialSession` is the in-process
NumPy path; :class:`~repro.backend.shmem.SharedMemorySession` fans a
min-propagation superstep out to one thread per virtual GPU over the
coordinator's own arrays (each thread reduces its fragment with
``MinScatter``, the coordinator applies the concatenated minima with
``MinScatter.relax``) and runs every other superstep serially.

The hard invariant, mirrored by the equivalence tests: for any
workload, every backend produces **bit-identical** algorithm outputs
and virtual-time totals. A backend may only change wall-clock time and
host-side statistics, exactly like the scheduler may only change
virtual time.

A backend is one :class:`ExecutionSession` subclass, picked by name
with :func:`repro.backend.session_class` when the engine is built; the
engine constructs one session per run and drives it with three calls
per iteration::

    session.begin_iteration(...)   # after the frontier is split
    session.message_count(...)     # while pricing cross-GPU messages
    session.step(...)              # the algorithm superstep

and closes it in a ``finally`` — sessions own their threads and must
stop every one on both clean and exceptional exits.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Sequence

from repro.runtime.frontier import Frontier

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmState, GASAlgorithm
    from repro.graph.csr import CSRGraph
    from repro.runtime.scheduler import RunContext

__all__ = ["ExecutionSession"]


class ExecutionSession(abc.ABC):
    """Per-run execution context: one run's host-side superstep path."""

    def begin_iteration(
        self,
        iteration: int,
        fragment_frontiers: "Sequence[Frontier]",
        aggregate: bool,
    ) -> None:
        """Announce the iteration's distributed frontier.

        ``aggregate`` is the switch :meth:`message_count` will be
        asked with. Called after the frontier split, before planning
        and pricing — a parallel backend dispatches work here so its
        threads overlap with the coordinator's scheduling decision.
        """

    @abc.abstractmethod
    def message_count(
        self,
        iteration: int,
        frontier: Frontier,
        aggregate: bool,
        context: "RunContext",
    ) -> int:
        """Messages crossing worker boundaries this iteration.

        With ``aggregate`` (early aggregation), one message per
        distinct remote destination; otherwise one per cross edge.
        Must equal the serial count exactly — it feeds virtual-time
        pricing.
        """

    @abc.abstractmethod
    def step(
        self,
        iteration: int,
        algorithm: "GASAlgorithm",
        graph: "CSRGraph",
        state: "AlgorithmState",
    ) -> Frontier:
        """Execute the algorithm superstep; return the next frontier."""

    def stats(self) -> Optional[dict]:
        """Host-side execution statistics for the run result."""
        return None

    def close(self) -> None:
        """Stop the session's threads (idempotent)."""

