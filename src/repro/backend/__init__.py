"""Execution backends: where supersteps physically run.

See :mod:`repro.backend.base` for the contract. Select with
``EngineOptions(backend=...)`` or ``--backend serial|shmem`` on the
CLI; ``serial`` (the historical in-process path) is the default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.errors import EngineError

if TYPE_CHECKING:
    from repro.backend.base import ExecutionBackend

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.backend.base": ("ExecutionBackend", "ExecutionSession"),
    "repro.backend.serial": ("SerialBackend", "SerialSession"),
    "repro.backend.shmem": ("SharedMemoryBackend", "SharedMemorySession"),
})
__all__ += ["BACKEND_NAMES", "make_backend"]

#: registered backend names, in CLI display order
BACKEND_NAMES = ("serial", "shmem")


def make_backend(name: str) -> ExecutionBackend:
    """Instantiate a backend by registered name."""
    if name == "serial":
        from repro.backend.serial import SerialBackend

        return SerialBackend()
    if name == "shmem":
        from repro.backend.shmem import SharedMemoryBackend

        return SharedMemoryBackend()
    raise EngineError(
        f"unknown execution backend {name!r}; known: "
        + ", ".join(BACKEND_NAMES)
    )
