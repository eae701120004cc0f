#!/usr/bin/env python3
"""Keep docs/observability.md's telemetry vocabulary complete.

Dashboards, SLO rule files, and ``repro top`` all key off span and
metric *names*. A name that ships without appearing in the docs' name
tables is telemetry nobody can discover — and a renamed span silently
breaks every saved rule file that referenced the old name. This
checker walks the library source for emission call sites
(``tracer.span/virtual_span/instant`` and
``metrics.counter/gauge/histogram``) whose name argument is
a string literal and requires each name to appear backticked in
``docs/observability.md``.

f-string names (``f"chaos.{kind}"``) are checked by their literal
prefix: some backticked token must start with that prefix (the docs
list ``chaos.kill_worker`` etc. explicitly, or a ``chaos.*`` family
entry). Purely dynamic names (a variable) are out of scope.

``src/repro/bench`` is excluded: its registries are synthetic
microbenchmark payloads, not product telemetry.

Usage: ``python tools/check_span_names.py [src-path ...]``
(defaults to ``src/repro``). Exits non-zero when an undocumented name
is found.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from typing import List, Tuple

#: tracer/metrics methods whose first argument is a telemetry name
EMIT_METHODS = {
    "span", "virtual_span", "instant",
    "counter", "gauge", "histogram",
}

#: source subtrees whose emissions are bench fixtures, not telemetry
EXCLUDED_PARTS = ("bench",)

DOCS = pathlib.Path("docs/observability.md")

# (file, line, name, is_prefix)
Finding = Tuple[pathlib.Path, int, str, bool]


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


def emitted_names(path: pathlib.Path) -> List[Finding]:
    """All literal telemetry names emitted by one source file."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        raise SystemExit(f"{path}: cannot parse: {exc}") from exc
    found: List[Finding] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in EMIT_METHODS
                and node.args):
            continue
        name = _literal_name(node.args[0])
        if name is not None:
            found.append((path, node.lineno, name[0], name[1]))
    return found


def collect_names(paths) -> List[Finding]:
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
            found.extend(emitted_names(file))
    return found


def documented_tokens(docs_path: pathlib.Path = DOCS) -> set:
    """Every backticked token in the observability docs."""
    return set(re.findall(r"`([^`\n]+)`", docs_path.read_text()))


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
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
