"""Execution backends: where supersteps physically run.

See :mod:`repro.backend.base` for the contract. Select with
``EngineOptions(backend=...)`` or ``--backend serial|shmem`` on the
CLI; ``serial`` (the historical in-process path) is the default.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.errors import EngineError

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.backend.base": ("ExecutionSession",),
    "repro.backend.serial": ("SerialSession",),
    "repro.backend.shmem": ("SharedMemorySession",),
})
__all__ += ["BACKEND_NAMES", "session_class"]

#: registered backend names, in CLI display order
BACKEND_NAMES = ("serial", "shmem")


def session_class(name: str) -> type:
    """The session type a registered backend name runs.

    Sessions are built as ``cls(graph, partition, algorithm, state)``.
    """
    if name == "serial":
        from repro.backend.serial import SerialSession

        return SerialSession
    if name == "shmem":
        from repro.backend.shmem import SharedMemorySession

        return SharedMemorySession
    raise EngineError(
        f"unknown execution backend {name!r}; known: "
        + ", ".join(BACKEND_NAMES)
    )
