"""Exception hierarchy for the :mod:`repro` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries. Subclasses mirror the
major subsystems (graph construction, partitioning, hardware modelling,
scheduling/solving, and engine execution).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Malformed or inconsistent graph data (bad CSR arrays, bad edges)."""


class PartitionError(ReproError):
    """Invalid partition specification or violated partition invariants."""


class TopologyError(ReproError):
    """Invalid hardware topology (bad lane matrix, unreachable devices)."""


class SolverError(ReproError):
    """A stealing-policy solver failed to produce a feasible solution."""


class EngineError(ReproError):
    """A processing engine was misconfigured or failed during execution."""


class ConvergenceError(EngineError):
    """An iterative algorithm exceeded its iteration budget."""


class CostModelError(ReproError):
    """Cost-model training or inference failed (e.g. empty training set)."""


class FaultInjectionError(ReproError):
    """A chaos scenario is malformed or impossible on this machine.

    Raised when a scenario file fails schema validation (unknown fault
    kind, missing fields, bad types) or references devices/links the
    target topology does not have.
    """


class DegradedModeError(EngineError):
    """Graceful degradation ran out of road.

    Raised when every worker has been killed, or a degradation policy
    (solver fallback chain, eviction, transfer retry) cannot produce
    any usable configuration. Also an :class:`EngineError`: exceeding
    the fault budget is an execution failure, not a scenario typo.
    """


class RunRegistryError(ReproError):
    """The run registry was asked something it cannot answer.

    Raised for unknown or ambiguous run references, corrupt manifests,
    and attempts to diff incommensurable runs (different workload or
    seed — numbers that were never comparable).
    """


class TraceFormatError(ReproError, ValueError):
    """A trace file is malformed, truncated, or not a trace at all.

    Also a :class:`ValueError` so callers that predate the dedicated
    type keep working.
    """
