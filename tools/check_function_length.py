#!/usr/bin/env python3
"""Limit on function length under ``src/repro``.

A function nobody can hold in their head is where decision logic,
bookkeeping and observability end up interleaved — ``GumScheduler.plan``
was 252 lines before it became five named stages, ``build_parser`` 498
before it became one registrar per verb. This checker keeps that from
growing back: no function under ``src/repro`` may exceed :data:`LIMIT`
lines, and there is no allow-list.

Length is the ``def`` line through the last line of the body
(docstring included, decorators excluded).

Usage: ``python tools/check_function_length.py [repo-root]``
(defaults to the checkout this file lives in). Exits non-zero when a
function is over the limit.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Iterator, List, Tuple

#: longest function allowed
LIMIT = 120


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


def check_tree(root: pathlib.Path) -> List[str]:
    """Violation messages for the ``src/repro`` tree under ``root``."""
    violations: List[str] = []
    for file in sorted((root / "src" / "repro").rglob("*.py")):
        relative = file.relative_to(root).as_posix()
        for name, length in function_lengths(file):
            if length > LIMIT:
                violations.append(
                    f"{relative}::{name}: {length} lines (limit {LIMIT}); "
                    "split it into named stages"
                )
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
