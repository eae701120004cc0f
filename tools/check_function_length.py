#!/usr/bin/env python3
"""Ratchet on function length under ``src/repro``.

A function nobody can hold in their head is where decision logic,
bookkeeping and observability end up interleaved — ``GumScheduler.plan``
was 252 lines before it became five named stages. This checker keeps
that from growing back: every function longer than :data:`LIMIT` lines
fails unless it is on the allow-list below, and the list only ratchets
down — a listed function whose length differs from its listing (it
grew, or it shrank and the listing was not lowered), or a listing whose
function is gone or now within the limit, fails too.

Length is the ``def`` line through the last line of the body
(docstring included, decorators excluded).

Usage: ``python tools/check_function_length.py [repo-root]``
(defaults to the checkout this file lives in). Exits non-zero on any
violation.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, Iterator, List, Tuple

#: longest function allowed without a listing
LIMIT = 120

#: ``path::qualified.name`` -> current length of today's offenders.
#: Shrink a function and lower (or drop) its entry; never raise one.
ALLOWED = {
    "src/repro/cli.py::build_parser": 498,
    "src/repro/runtime/bsp.py::BSPEngine.run": 131,
}


def function_lengths(path: pathlib.Path) -> Iterator[Tuple[str, int]]:
    """``(qualified name, length in lines)`` of every function in a file."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        raise SystemExit(f"{path}: cannot parse: {exc}") from exc

    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                yield name, child.end_lineno - child.lineno + 1
                yield from visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)

    return visit(tree, "")


def check_tree(root: pathlib.Path,
               allowed: Dict[str, int] = ALLOWED) -> List[str]:
    """Violation messages for the ``src/repro`` tree under ``root``."""
    violations: List[str] = []
    seen = set()
    for file in sorted((root / "src" / "repro").rglob("*.py")):
        relative = file.relative_to(root).as_posix()
        for name, length in function_lengths(file):
            key = f"{relative}::{name}"
            listed = allowed.get(key)
            if listed is not None:
                seen.add(key)
            if length > LIMIT and listed is None:
                violations.append(
                    f"{key}: {length} lines (limit {LIMIT}); split it "
                    "into named stages"
                )
            elif listed is not None and length > listed:
                violations.append(
                    f"{key}: grew from {listed} to {length} lines"
                )
            elif listed is not None and length < listed:
                violations.append(
                    f"{key}: stale listing, now {length} lines — "
                    + ("drop it" if length <= LIMIT
                       else f"lower it from {listed}")
                )
    for key in sorted(set(allowed) - seen):
        violations.append(f"{key}: stale listing, no such function")
    return violations


def main(argv: List[str]) -> int:
    root = pathlib.Path(argv[0]) if argv else (
        pathlib.Path(__file__).resolve().parent.parent
    )
    violations = check_tree(root)
    for message in violations:
        print(message)
    if violations:
        print(f"{len(violations)} function-length violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
