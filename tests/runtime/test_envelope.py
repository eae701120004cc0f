"""The run envelope's contract, held by every engine loop at once.

``BSPEngine.run`` (GUM, Gunrock) and ``GrouteEngine.run`` open, fold
and close a run through one :class:`repro.runtime.envelope.RunEnvelope`;
these tests pin what that buys: a ``run`` span that closes when a round
raises, and engines that take any object with the ``GASAlgorithm``
interface — the e2e benchmark's timing proxies are not subclasses.
"""

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.baselines import GrouteEngine, GunrockEngine
from repro.hardware import dgx1
from repro.obs import InMemorySink, Tracer
from repro.partition import random_partition
from repro.runtime import BSPEngine, Scheduler, StaticScheduler


class _Proxy:
    """Delegates to a real algorithm by ``__getattr__`` (not a
    ``GASAlgorithm`` subclass); counts kernel calls and can fail one."""

    def __init__(self, inner, fail_on_call=None):
        self._inner = inner
        self._fail_on_call = fail_on_call
        self.calls = 0

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def _kernel(self, method, *args):
        self.calls += 1
        if self.calls == self._fail_on_call:
            raise RuntimeError("kernel failed mid-round")
        return method(*args)

    def step(self, graph, state):
        return self._kernel(self._inner.step, graph, state)

    def local_step(self, graph, state, frontier, allowed_mask):
        return self._kernel(self._inner.local_step, graph, state,
                            frontier, allowed_mask)


class _DelegatingScheduler(Scheduler):
    """The shape of the benchmark's ``TimedScheduler``: forwards every
    call to an inner policy and logs the order."""

    def __init__(self):
        self._inner = StaticScheduler()
        self.name = self._inner.name
        self.log = []

    def begin_run(self, context):
        self.log.append("begin_run")
        return self._inner.begin_run(context)

    def plan(self, iteration, fragment_frontiers, workloads, context):
        self.log.append("plan")
        return self._inner.plan(iteration, fragment_frontiers, workloads,
                                context)

    def observe(self, record, context):
        self.log.append("observe")
        return self._inner.observe(record, context)

    def finish_run(self, context):
        self.log.append("finish_run")
        return self._inner.finish_run(context)


@pytest.mark.parametrize("engine_cls", [GrouteEngine, BSPEngine])
def test_run_span_closes_when_a_round_raises(engine_cls, road_graph):
    sink = InMemorySink()
    tracer = Tracer(sinks=[sink])
    engine = engine_cls(dgx1(4), tracer=tracer)
    partition = random_partition(road_graph, 4, seed=0)
    failing = _Proxy(make_algorithm("bfs"), fail_on_call=4)
    with pytest.raises(RuntimeError, match="mid-round"):
        engine.run(road_graph, partition, failing, source=0)
    assert tracer._depth == 0
    assert [r.name for r in sink.records].count("run") == 1


def test_every_engine_accepts_a_delegating_algorithm(road_graph):
    partition = random_partition(road_graph, 4, seed=0)
    scheduler = _DelegatingScheduler()
    engines = [
        BSPEngine(dgx1(4), scheduler=scheduler),
        GunrockEngine(dgx1(4)),
        GrouteEngine(dgx1(4)),
    ]
    for engine in engines:
        proxy = _Proxy(make_algorithm("bfs"))
        plain = engine.run(road_graph, partition, "bfs", source=0)
        proxied = engine.run(road_graph, partition, proxy, source=0)
        assert proxy.calls > 0
        assert proxied.total_ms == plain.total_ms
        assert np.array_equal(proxied.values, plain.values)
    # the scheduler saw two identical runs, each
    # begin_run -> (plan -> observe) per superstep -> finish_run
    supersteps = scheduler.log.count("plan") // 2
    assert supersteps > 0
    assert scheduler.log == 2 * (
        ["begin_run"] + ["plan", "observe"] * supersteps + ["finish_run"]
    )
