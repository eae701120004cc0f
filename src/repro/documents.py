"""Loading versioned ``repro-*/1`` JSON documents.

Every artifact this package writes is a JSON object carrying a
``schema`` string. The files come back from disk, from CI artifacts,
and from hand edits, so each loader has to turn the same three
failures — unreadable or truncated JSON, a non-object payload, a
foreign schema — into its subsystem's typed error naming the file.
"""

from __future__ import annotations

import json
from typing import Type

from repro.errors import ReproError

__all__ = ["load_document"]


def load_document(
    path, schema: str, error_cls: Type[ReproError], what: str
) -> dict:
    """The ``schema``-versioned JSON object stored at ``path``.

    ``what`` names the document kind in messages ("manifest", "bench
    report", ...). Any failure raises ``error_cls`` with the path in
    the message, never a raw ``OSError``/``ValueError``/``KeyError``.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise error_cls(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error_cls(f"{path}: corrupt {what} ({exc})") from exc
    if not isinstance(payload, dict):
        raise error_cls(
            f"{path}: {what} must be a JSON object, "
            f"not {type(payload).__name__}"
        )
    if payload.get("schema") != schema:
        raise error_cls(
            f"{path}: unsupported {what} schema "
            f"{payload.get('schema')!r} (expected {schema!r})"
        )
    return payload
