#!/usr/bin/env python3
"""Keep docs/observability.md's telemetry vocabulary complete.

Trace viewers, ``runs analyze``, ``replay`` and recorded manifests
all key off span and metric *names*. A name that ships without
appearing in the docs' name tables is telemetry nobody can discover —
and a renamed span silently breaks every reader of the old name. This
checker walks the library source for emission call sites
(``tracer.span/virtual_span/instant``, ``SpanRecord(name=...)`` and
``metrics.counter/gauge/histogram``) whose name argument is
a string literal and requires each name to appear backticked in
``docs/observability.md``. In the other direction, every name in the
docs' span vocabulary table must be emitted by some span call: a row
nothing emits documents telemetry no run produces.

f-string names (``f"chaos.{kind}"``) are checked by their literal
prefix: some backticked token must start with that prefix (the docs
list ``chaos.kill_worker`` etc. explicitly, or a ``chaos.*`` family
entry). Purely dynamic names (a variable) are out of scope. A
``chaos.<kind>`` row of the span table is the prefix ``chaos.``.

``src/repro/bench`` is excluded: its registries are synthetic
microbenchmark payloads, not product telemetry.

Usage: ``python tools/check_span_names.py [src-path ...]``
(defaults to ``src/repro``). Exits non-zero when an undocumented name
is found or, on the default path, when a span-table row is emitted by
no span call (with explicit paths only the first direction is checked:
a row is stale only if the whole library never emits it).
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from typing import List, Optional, Tuple

#: tracer methods whose first argument is a span name
SPAN_METHODS = {"span", "virtual_span", "instant"}

#: tracer/metrics methods whose first argument is a telemetry name
EMIT_METHODS = SPAN_METHODS | {"counter", "gauge", "histogram"}

#: source subtrees whose emissions are bench fixtures, not telemetry
EXCLUDED_PARTS = ("bench",)

DOCS = pathlib.Path("docs/observability.md")

# (file, line, name, is_prefix)
Finding = Tuple[pathlib.Path, int, str, bool]

# (name, is_prefix) of one span-table row
Row = Tuple[str, bool]


def _literal_name(node: ast.AST):
    """The name argument as (text, is_prefix), or None if dynamic."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.JoinedStr):
        prefix = ""
        for part in node.values:
            if isinstance(part, ast.Constant):
                prefix += str(part.value)
            else:
                break
        if prefix:
            return prefix, True
    return None


def _name_argument(node: ast.AST, methods) -> Optional[ast.AST]:
    """The name argument of an emission call, or None."""
    if not isinstance(node, ast.Call):
        return None
    if (isinstance(node.func, ast.Attribute) and node.func.attr in methods
            and node.args):
        return node.args[0]
    if isinstance(node.func, ast.Name) and node.func.id == "SpanRecord":
        return next(
            (k.value for k in node.keywords if k.arg == "name"), None
        )
    return None


def emitted_names(path: pathlib.Path,
                  methods=EMIT_METHODS) -> List[Finding]:
    """All literal telemetry names emitted by one source file."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        raise SystemExit(f"{path}: cannot parse: {exc}") from exc
    found: List[Finding] = []
    for node in ast.walk(tree):
        argument = _name_argument(node, methods)
        name = None if argument is None else _literal_name(argument)
        if name is not None:
            found.append((path, node.lineno, name[0], name[1]))
    return found


def collect_names(paths, methods=EMIT_METHODS) -> List[Finding]:
    """Emission sites under the given files/directories."""
    found: List[Finding] = []
    for root in paths:
        root = pathlib.Path(root)
        files = (
            sorted(root.rglob("*.py")) if root.is_dir()
            else [root] if root.suffix == ".py"
            else []
        )
        for file in files:
            if any(part in EXCLUDED_PARTS for part in file.parts):
                continue
            found.extend(emitted_names(file, methods))
    return found


def documented_tokens(docs_path: pathlib.Path = DOCS) -> set:
    """Every backticked token in the observability docs."""
    return set(re.findall(r"`([^`\n]+)`", docs_path.read_text()))


def span_vocabulary(docs_path: pathlib.Path = DOCS) -> List[Row]:
    """``(name, is_prefix)`` of every span-table row in the docs."""
    section = docs_path.read_text().split("### Span vocabulary", 1)[-1]
    rows: List[Row] = []
    for line in section.split("\n### ", 1)[0].splitlines():
        cells = line.split("|")
        if len(cells) < 3 or not cells[1].strip().startswith("`"):
            continue
        for token in re.findall(r"`([^`\n]+)`", cells[1]):
            prefix, bracket, __ = token.partition("<")
            rows.append((prefix, bool(bracket)))
    return rows


def stale_rows(rows, findings) -> List[Row]:
    """Span-table rows that no emission site produces."""
    def emits(row: Row, finding: Finding) -> bool:
        (name, row_is_prefix), (_, _, emitted, is_prefix) = row, finding
        if row_is_prefix:
            return emitted.startswith(name)
        return name.startswith(emitted) if is_prefix else name == emitted

    return [row for row in rows if not any(emits(row, f) for f in findings)]


def undocumented(findings, tokens) -> List[Finding]:
    """Emission sites whose name no documented token covers."""
    missing: List[Finding] = []
    for finding in findings:
        _, _, name, is_prefix = finding
        if is_prefix:
            covered = any(t.startswith(name) for t in tokens)
        else:
            covered = name in tokens
        if not covered:
            missing.append(finding)
    return missing


def main(argv: List[str]) -> int:
    targets = argv or ["src/repro"]
    targets = [t for t in targets if pathlib.Path(t).exists()]
    if not DOCS.exists():
        print(f"{DOCS} not found (run from the repo root)",
              file=sys.stderr)
        return 1
    missing = undocumented(collect_names(targets), documented_tokens())
    for path, line, name, is_prefix in missing:
        kind = "name prefix" if is_prefix else "name"
        print(f"{path}:{line}: telemetry {kind} {name!r} "
              f"is not documented in {DOCS}")
    if missing:
        print(f"{len(missing)} undocumented telemetry name(s); add "
              f"them to the name tables in {DOCS}", file=sys.stderr)
    stale = [] if argv else stale_rows(
        span_vocabulary(), collect_names(targets, SPAN_METHODS)
    )
    for name, is_prefix in stale:
        shown = f"{name}<...>" if is_prefix else name
        print(f"{DOCS}: span {shown!r} is emitted by no span call "
              f"under {targets[0]}")
    if stale:
        print(f"{len(stale)} stale span row(s); delete them from the "
              f"span vocabulary in {DOCS}", file=sys.stderr)
    return 1 if missing or stale else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
