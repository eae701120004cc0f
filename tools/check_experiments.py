#!/usr/bin/env python3
"""EXPERIMENTS.md's measured numbers against the committed tables.

The paper tables under ``benchmarks/results`` are regenerated and
diffed by CI, but the prose that quotes them is hand-written: a
regeneration that moves a number leaves EXPERIMENTS.md quoting the old
one. This checker reads every Markdown table of EXPERIMENTS.md, takes
each column whose header starts with "measured", and requires every
number inside a bold span (``**6.8×**``, ``**26% → 7%**``) of such a
column to occur in the results file its section names (the
``→ `results/<file>.txt``` line under the heading), or in some
committed ``benchmarks/results/*.txt`` when the section names none.

"Occurs" means some printed number rounds to the quoted one at the
digits quoted: a quoted ``6.8`` is a printed ``6.77`` or ``6.83``, a
quoted ``7`` a printed ``7`` or ``6.9``, but never the ``7`` inside
``17`` or ``0.7`` — so a single-digit number that drifts fails like
any other.

Usage: ``python tools/check_experiments.py [repo-root]`` (defaults to
the checkout this file lives in). Exits non-zero on any number that
is not found.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Iterator, List, Optional, Tuple

#: a section's results file, as EXPERIMENTS.md names it under a heading
_RESULTS_LINE = re.compile(r"→ `results/([\w.-]+\.txt)`")
_RULE = re.compile(r"^\|[-| :]+\|\s*$")
_BOLD = re.compile(r"\*\*(.+?)\*\*")
_NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _cells(line: str) -> List[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def measured_numbers(
    text: str,
) -> Iterator[Tuple[int, Optional[str], str, str]]:
    """``(line number, results file or None, bold span, number)`` of
    every number in a bold span of a "measured" column."""
    lines = text.splitlines()
    results: Optional[str] = None
    row = 0
    while row < len(lines):
        line = lines[row]
        if line.startswith("#"):
            results = None
        found = _RESULTS_LINE.search(line)
        if found:
            results = found.group(1)
        if not (line.startswith("|") and row + 1 < len(lines)
                and _RULE.match(lines[row + 1])):
            row += 1
            continue
        columns = [k for k, header in enumerate(_cells(line))
                   if header.lower().startswith("measured")]
        row += 2
        while row < len(lines) and lines[row].startswith("|"):
            cells = _cells(lines[row])
            for column in columns:
                if column >= len(cells):
                    continue
                for span in _BOLD.findall(cells[column]):
                    for number in _NUMBER.findall(span):
                        yield row + 1, results, span, number
            row += 1


def _decimals(number: str) -> int:
    return len(number.partition(".")[2])


def rounds_to(quoted: str, table: str) -> bool:
    """Whether a number printed in ``table``, to at least as many
    decimals, is within half a unit of ``quoted``'s last digit."""
    places = _decimals(quoted)
    value, half = float(quoted), 0.5 * 10.0 ** -places * (1 + 1e-9)
    return any(_decimals(printed) >= places
               and abs(float(printed) - value) <= half
               for printed in _NUMBER.findall(table))


def check(root: pathlib.Path) -> Tuple[int, List[str]]:
    """``(numbers checked, violation messages)`` for the checkout at
    ``root``."""
    directory = root / "benchmarks" / "results"
    tables = {path.name: path.read_text()
              for path in sorted(directory.glob("*.txt"))}
    everything = "\n".join(tables.values())
    checked, violations = 0, []
    text = (root / "EXPERIMENTS.md").read_text()
    for line, results, span, number in measured_numbers(text):
        checked += 1
        if results is not None and results not in tables:
            violations.append(f"EXPERIMENTS.md:{line}: names "
                              f"results/{results}, which is not committed")
            continue
        table = everything if results is None else tables[results]
        if not rounds_to(number, table):
            where = ("any benchmarks/results/*.txt" if results is None
                     else f"results/{results}")
            violations.append(f"EXPERIMENTS.md:{line}: {number} (in "
                              f"**{span}**) does not occur in {where}")
    return checked, violations


def main(argv: List[str]) -> int:
    root = (pathlib.Path(argv[1]) if len(argv) > 1
            else pathlib.Path(__file__).resolve().parent.parent)
    checked, violations = check(root)
    for message in violations:
        print(message)
    if violations:
        print(f"{len(violations)} of {checked} measured numbers are not "
              "in the committed tables")
        return 1
    print(f"ok: {checked} measured numbers found in the committed tables")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
