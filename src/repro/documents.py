"""Loading the JSON files this package reads back.

Every artifact this package writes is JSON (or JSON lines), most of
them an object carrying a ``schema`` string. The files come back from
disk, from CI artifacts, and from hand edits, so each loader has to
turn the same failures — a missing, binary or truncated file, a
non-object payload, a foreign schema — into its subsystem's typed
error naming the file.
"""

from __future__ import annotations

import json
from typing import List, Type

from repro.errors import ReproError

__all__ = ["load_document", "load_json", "load_json_lines"]


def _read_text(path, error_cls: Type[ReproError], what: str) -> str:
    """The text stored at ``path``; unreadable or binary is ``error_cls``."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise error_cls(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # UnicodeDecodeError: a binary file
        raise error_cls(f"{path}: {what} is not text ({exc})") from exc


def _parse(text: str, where, error_cls: Type[ReproError], what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise error_cls(f"{where}: malformed {what} ({exc})") from exc


def load_json(path, error_cls: Type[ReproError], what: str):
    """The JSON value stored at ``path``.

    ``what`` names the file kind in messages ("manifest", "chaos
    scenario", ...). A missing, unreadable, binary or truncated file
    raises ``error_cls`` naming the path, never a raw
    ``OSError``/``ValueError``.
    """
    return _parse(_read_text(path, error_cls, what), path, error_cls, what)


def load_json_lines(
    path, error_cls: Type[ReproError], what: str
) -> List[dict]:
    """The objects of the JSON-lines file at ``path``, blank lines skipped.

    Failures raise ``error_cls`` with ``path:lineno``.
    """
    objects: List[dict] = []
    lines = _read_text(path, error_cls, what).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        parsed = _parse(line, where, error_cls, f"{what} line")
        if not isinstance(parsed, dict):
            raise error_cls(
                f"{where}: expected a JSON object, got "
                f"{type(parsed).__name__}"
            )
        objects.append(parsed)
    return objects


def load_document(
    path, schema: str, error_cls: Type[ReproError], what: str
) -> dict:
    """The ``schema``-versioned JSON object stored at ``path``.

    Any failure raises ``error_cls`` with the path in the message,
    never a raw ``OSError``/``ValueError``/``KeyError``.
    """
    payload = load_json(path, error_cls, what)
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
