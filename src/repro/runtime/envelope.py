"""The run envelope: what every engine loop shares, written once.

GUM, Gunrock and Groute differ in how one round is priced. Around that
they do the same thing — open a :class:`RunResult` and the ``run``
span, fold each priced :class:`IterationRecord` into the result, the
observers and the virtual clock, close with the final values — so an
engine's loop is ``with envelope.span(): while frontier:
envelope.fold(price_one_round())`` and a span that leaks when a round
raises, or a result without its host-clock self-measurement, cannot be
one engine's private bug.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.export import emit_iteration
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime.metrics import IterationRecord, RunResult

__all__ = ["RunEnvelope"]


class RunEnvelope:
    """Open → fold → close around one engine run.

    Creating the envelope creates the result and starts the host wall
    clock behind ``run_wall_seconds``. ``algorithm`` is anything with
    the ``GASAlgorithm`` interface and ``state`` what its ``init``
    returned; :meth:`close` reads ``state.values`` / ``state.frontier``
    again, after the loop has advanced them.
    """

    def __init__(
        self,
        engine: str,
        algorithm,
        graph,
        num_gpus: int,
        state,
        tracer: Tracer,
        metrics: MetricsRegistry,
    ) -> None:
        self._wall_start = time.perf_counter()
        self._state = state
        self._tracer = tracer
        self._metrics = metrics
        # emission is host-timed only when an observer is attached, so
        # a silent run reports exactly 0.0 observability seconds
        self._observed = tracer.enabled or metrics.enabled
        #: minor page faults at open, read only for a registry to count
        self._faults = _minor_faults() if metrics.enabled else None
        self._prev_group: Optional[int] = None
        #: virtual seconds charged so far (the clock the spans ride)
        self.virtual_clock = 0.0
        self.result = RunResult(
            engine=engine,
            algorithm=algorithm.name,
            graph_name=graph.name,
            num_gpus=num_gpus,
            values=state.values,
        )

    @property
    def rounds(self) -> int:
        """Rounds folded so far."""
        return len(self.result.iterations)

    @contextmanager
    def span(self) -> Iterator[None]:
        """The ``run`` span around the loop, closed on every exit path;
        a run that completes stamps it with its totals."""
        result = self.result
        with self._tracer.span(
            "run", cat="engine", engine=result.engine,
            algorithm=result.algorithm, graph=result.graph_name,
            num_gpus=result.num_gpus,
        ) as run_span:
            yield
            run_span.set(iterations=self.rounds,
                         virtual_total_ms=self.virtual_clock * 1e3)

    def fold(self, record: IterationRecord) -> None:
        """Account one priced round: result, observers, virtual clock.

        Emission only reads the record, after the round is priced, so
        observed and silent runs charge identical virtual clocks.
        """
        result = self.result
        result.iterations.append(record)
        result.breakdown.add(record.breakdown)
        result.real_decision_seconds += record.real_decision_seconds
        obs_start = time.perf_counter() if self._observed else 0.0
        self.virtual_clock = emit_iteration(
            self._tracer, self._metrics, record, self.virtual_clock,
            self._prev_group, engine=result.engine,
        )
        if self._observed:
            result.obs_seconds += time.perf_counter() - obs_start
        if record.osteal_group_size is not None:
            self._prev_group = record.osteal_group_size

    def close(self) -> RunResult:
        """The finished result: final values, convergence, host wall."""
        result = self.result
        result.values = self._state.values
        result.converged = not self._state.frontier
        result.run_wall_seconds = time.perf_counter() - self._wall_start
        if self._faults is not None:
            self._metrics.counter("engine.minor_faults").inc(
                _minor_faults() - self._faults)
        return result


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
