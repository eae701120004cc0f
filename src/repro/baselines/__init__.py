"""Baseline system models: Gunrock (BSP), Groute (async ring), and
classic reactive work stealing (peek-and-grab)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.gunrock": ("GunrockEngine",),
    "repro.baselines.groute": ("GrouteEngine",),
    "repro.baselines.peeksteal": ("PeekStealScheduler",),
})
