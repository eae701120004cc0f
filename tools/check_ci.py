#!/usr/bin/env python3
"""Keep the CI workflows on the shared rails.

Three failure modes creep into GitHub Actions workflows as jobs are
copy-pasted and then drift:

* a job without ``timeout-minutes`` hangs for GitHub's six-hour
  default when something deadlocks, burning runner quota and delaying
  every queued PR behind it;
* a job that re-spells the setup preamble by hand (setup-python,
  pip cache, install) instead of using the shared
  ``.github/actions/setup-repro`` composite action silently diverges —
  a Python bump or an install-flag fix lands in four jobs and misses
  the fifth;
* a step that still runs ``python -m repro <verb>`` after the verb was
  folded into another one only fails once the job runs, on someone
  else's PR.

This checker parses every workflow under ``.github/workflows`` and
requires each job to declare ``timeout-minutes``, each job that
defines steps to invoke the composite action, and every
``python -m repro ...`` invocation in a ``run:`` script to name
subcommands ``repro.cli.build_parser()`` defines. ``reusable-workflow``
jobs (``uses:`` at the job level, no ``steps``) only need the
timeout where GitHub allows one, so they are exempt from the action
requirement.

Usage: ``python tools/check_ci.py [workflow.yml ...]`` (defaults to
``.github/workflows``). Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import re
import sys
from typing import Dict, List, Optional, Tuple

import yaml

REPO = pathlib.Path(__file__).resolve().parent.parent

# the lint runs from a bare checkout too, not only an installed one
sys.path.insert(0, str(REPO / "src"))

#: the shared preamble every step-defining job must run
SETUP_ACTION = "./.github/actions/setup-repro"

WORKFLOWS_DIR = pathlib.Path(".github/workflows")

# (file, job-name, message)
Violation = Tuple[pathlib.Path, str, str]


def _setup_steps(job: dict) -> List[dict]:
    """The job's steps that invoke the composite setup action."""
    return [
        step for step in job.get("steps") or []
        # version pins ("@...") would be meaningless on a local path
        # action but tolerate them rather than miscount the job
        if isinstance(step, dict) and isinstance(step.get("uses"), str)
        and step["uses"].split("@")[0] == SETUP_ACTION
    ]


def _subcommands(
    parser: argparse.ArgumentParser,
) -> Optional[Dict[str, argparse.ArgumentParser]]:
    """``{verb: sub-parser}`` of a parser, or None if it has no verbs."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return None


@functools.lru_cache(maxsize=None)
def _cli_parser() -> argparse.ArgumentParser:
    from repro.cli import build_parser

    return build_parser()


_REPRO_CALL = re.compile(r"python3?\s+-m\s+repro[ \t]+([^|;&\n]*)")


def unknown_cli_verbs(script: str) -> List[str]:
    """``repro`` invocations in a ``run:`` script the CLI would reject.

    Follows each ``python -m repro`` call down the sub-parser tree
    (``runs diff``, ``costmodel fit``) and returns the offending
    command prefixes, e.g. ``["repro costmodel bench"]``.
    """
    unknown = []
    for call in _REPRO_CALL.findall(script.replace("\\\n", " ")):
        verbs = _subcommands(_cli_parser())
        path = ["repro"]
        for word in call.split():
            if verbs is None or word.startswith("-"):
                break
            path.append(word)
            if word not in verbs:
                unknown.append(" ".join(path))
                break
            verbs = _subcommands(verbs[word])
    return unknown


def check_workflow(path: pathlib.Path) -> List[Violation]:
    """All violations in one workflow file."""
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        return [(path, "-", f"cannot parse: {exc}")]
    if not isinstance(data, dict):
        return [(path, "-", "not a workflow mapping")]
    violations: List[Violation] = []
    jobs = data.get("jobs")
    if not isinstance(jobs, dict):
        return [(path, "-", "workflow declares no jobs")]
    for name, job in jobs.items():
        if not isinstance(job, dict):
            violations.append((path, name, "job is not a mapping"))
            continue
        if "uses" in job and "steps" not in job:
            # reusable-workflow call: no steps of its own and GitHub
            # rejects timeout-minutes here; nothing to check
            continue
        if "timeout-minutes" not in job:
            violations.append((
                path, name,
                "missing timeout-minutes (GitHub's default is 6 "
                "hours; every job must bound its own runtime)",
            ))
        if not _setup_steps(job):
            violations.append((
                path, name,
                f"does not use the {SETUP_ACTION} composite action "
                "(shared setup preamble; see "
                ".github/actions/setup-repro/action.yml)",
            ))
        scripts = [
            step.get("run") or "" for step in job.get("steps") or []
            if isinstance(step, dict)
        ]
        for script in scripts:
            for command in unknown_cli_verbs(script):
                violations.append((
                    path, name,
                    f"runs {command!r}, which is not a subcommand "
                    "repro.cli.build_parser() defines",
                ))
    return violations


def check_workflows(paths) -> List[Violation]:
    """Violations across the given workflow files/directories."""
    violations: List[Violation] = []
    for target in paths:
        target = pathlib.Path(target)
        files = (
            sorted(p for p in target.iterdir()
                   if p.suffix in (".yml", ".yaml"))
            if target.is_dir() else [target]
        )
        for file in files:
            violations.extend(check_workflow(file))
    return violations


def main(argv: List[str]) -> int:
    targets = argv or [WORKFLOWS_DIR]
    missing = [t for t in targets if not pathlib.Path(t).exists()]
    if missing:
        print(f"not found: {', '.join(map(str, missing))} "
              "(run from the repo root)", file=sys.stderr)
        return 1
    violations = check_workflows(targets)
    for path, job, message in violations:
        print(f"{path}: job {job!r}: {message}")
    if violations:
        print(f"{len(violations)} CI workflow violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
