"""Counters, gauges, and histograms engines publish while running.

The paper's evaluation quotes aggregate statistics a timeline cannot
show — stolen edges per GPU pair, MILP solve latency, the cost model's
online RMSRE, hub-cache hit rates, the Figure 6 bucket breakdown. A
:class:`MetricsRegistry` holds those instruments by name; ``bench/``
and the ``profile`` CLI read one :meth:`~MetricsRegistry.snapshot` at
the end of a run.

As with tracing, :data:`NULL_METRICS` is the default everywhere:
instruments it hands out discard updates, and hot paths gate
label-building work on ``metrics.enabled``.

Snapshots are **JSON-stable**: every scalar is coerced to a plain
Python ``int``/``float``/``None`` at observation time and every mapping
is emitted in sorted key order, so two processes that observe the same
values serialize byte-identical JSON — the property the run registry's
``runs diff`` relies on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "quantile",
]


def quantile(values: List[float], q: float) -> Optional[float]:
    """Linear-interpolated quantile of ``values`` (``None`` if empty).

    Deterministic and dependency-free (no numpy) so snapshot output is
    byte-stable across processes. ``values`` need not be sorted.
    """
    if not values:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(float(v) for v in values)
    return _quantile_sorted(ordered, q)


def _quantile_sorted(ordered: List[float], q: float) -> float:
    rank = q * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    # the engine's per-iteration instruments carry zero or one label,
    # so those shapes skip the generic sort
    if not labels:
        return ()
    if len(labels) == 1:
        for k, v in labels.items():
            return ((k, v if isinstance(v, str) else str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _key_string(key: Tuple[Tuple[str, str], ...]) -> str:
    return ",".join(f"{k}={v}" for k, v in key) if key else ""


class Counter:
    """Monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add ``value`` to the series selected by ``labels``."""
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + float(value)

    def inc_key(self, key: Tuple[Tuple[str, str], ...],
                value: float = 1.0) -> None:
        """:meth:`inc` with a precomputed label key.

        Hot paths (the engine's per-superstep emitter) cache the
        ``(("label", "value"),)`` tuples once and skip rebuilding them
        every iteration; the series written are exactly the ones
        :meth:`inc` would select.
        """
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current value of one labelled series (0 if never touched)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every labelled series."""
        return sum(self._values.values())

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly state (sorted series, plain floats)."""
        values = self._values
        if len(values) == 1:  # the common unlabelled counter
            for key, value in values.items():
                value = float(value)
                return {
                    "type": self.kind,
                    "total": value,
                    "series": {_key_string(key): value},
                }
        return {
            "type": self.kind,
            "total": float(self.total()),
            "series": {
                _key_string(key): float(value)
                for key, value in sorted(self._values.items())
            },
        }


class Gauge:
    """Last-write-wins value (group size, online RMSRE, ...)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Optional[float] = None

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self._value = float(value)

    def value(self) -> Optional[float]:
        """Current value, or ``None`` if never set."""
        return self._value

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly state."""
        return {"type": self.kind, "value": self._value}


class Histogram:
    """Streaming distribution: count/sum/min/max plus decade buckets.

    Buckets are powers of ten of the observed value — wide enough for
    quantities spanning nanoseconds to seconds without configuration.

    Quantiles (p50/p90/p99) come from a bounded sample buffer: every
    sample is kept until the cap, after which the buffer is decimated
    to every other sample and only every ``stride``-th observation is
    retained. The schedule is purely deterministic (no random
    reservoir), so two processes observing the same sequence snapshot
    byte-identical quantiles — the property ``runs diff`` relies on.
    """

    kind = "histogram"

    #: Sample-buffer cap before deterministic stride doubling.
    SAMPLE_CAP = 4096

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[int, int] = {}
        self._samples: List[float] = []
        self._stride = 1
        self._pending = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        exponent = (
            math.floor(math.log10(abs(value))) if value != 0 else -math.inf
        )
        key = int(exponent) if exponent != -math.inf else -999
        self._buckets[key] = self._buckets.get(key, 0) + 1
        self._pending += 1
        if self._pending >= self._stride:
            self._pending = 0
            self._samples.append(value)
            if len(self._samples) >= self.SAMPLE_CAP:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of the samples seen so far."""
        return self.sum / self.count if self.count else None

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly state (sorted buckets, plain scalars)."""
        ordered = sorted(self._samples)  # one sort for all quantiles
        return {
            "type": self.kind,
            "count": int(self.count),
            "sum": float(self.sum),
            "mean": None if self.mean is None else float(self.mean),
            "min": None if self.min is None else float(self.min),
            "max": None if self.max is None else float(self.max),
            "p50": _quantile_sorted(ordered, 0.50) if ordered else None,
            "p90": _quantile_sorted(ordered, 0.90) if ordered else None,
            "p99": _quantile_sorted(ordered, 0.99) if ordered else None,
            "decade_buckets": {
                f"1e{exp}" if exp != -999 else "0": int(count)
                for exp, count in sorted(self._buckets.items())
            },
        }


class MetricsRegistry:
    """Named instruments, get-or-create semantics.

    Asking twice for the same name returns the same instrument;
    asking for an existing name with a different type raises.
    """

    enabled: bool = True

    _KINDS = {
        "counter": Counter,
        "gauge": Gauge,
        "histogram": Histogram,
    }

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, cls, name: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).kind}, not {cls.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name)

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self._get(Gauge, name)

    def histogram(self, name: str) -> Histogram:
        """Get or create a histogram."""
        return self._get(Histogram, name)

    def names(self) -> List[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All instruments' state, keyed by name (JSON-friendly)."""
        instruments = self._instruments
        return {name: instruments[name].snapshot() for name in self.names()}


class _NullInstrument:
    """Discards every update; satisfies all three instrument APIs."""

    __slots__ = ()
    count = 0
    sum = 0.0
    min = None
    max = None
    mean = None

    def inc(self, value: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def value(self, **labels):
        return None

    def total(self) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, object]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics(MetricsRegistry):
    """Disabled registry: hands out no-op instruments."""

    enabled = False

    def counter(self, name: str):  # type: ignore[override]
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(self, name: str):  # type: ignore[override]
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Always empty."""
        return {}


#: Shared disabled registry — the default for every engine.
NULL_METRICS = NullMetrics()
