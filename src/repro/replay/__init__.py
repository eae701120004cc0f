"""Replay a recorded run: check it, or re-execute it under an override
(see :mod:`repro.replay.simulator`)."""

from repro.replay.simulator import (
    REPLAY_SCHEMA,
    ReplayError,
    ReplayRunResult,
    format_replay_result,
    replay_run,
)

__all__ = [
    "REPLAY_SCHEMA",
    "ReplayError",
    "ReplayRunResult",
    "format_replay_result",
    "replay_run",
]
