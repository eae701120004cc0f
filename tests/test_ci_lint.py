"""The CI workflow lint guard (tools/check_ci.py).

Workflow jobs are copy-paste-prone: a job that omits
``timeout-minutes`` hangs for GitHub's six-hour default, and a job
that hand-rolls the setup preamble instead of using the
``.github/actions/setup-repro`` composite action drifts away from the
others, and a step that invokes a ``python -m repro`` subcommand the
CLI no longer defines only fails once the job runs. These tests prove
the checker detects all three failure modes and that the committed
workflows are currently clean.
"""

import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_ci  # noqa: E402


def _check(source: str, tmp_path):
    file = tmp_path / "workflow.yml"
    file.write_text(textwrap.dedent(source))
    return check_ci.check_workflow(file)


CLEAN = """
    name: X
    on: push
    jobs:
      good:
        runs-on: ubuntu-latest
        timeout-minutes: 10
        steps:
          - uses: actions/checkout@v4
          - uses: ./.github/actions/setup-repro
          - run: python -m pytest -q
"""


def test_clean_job_passes(tmp_path):
    assert _check(CLEAN, tmp_path) == []


def test_missing_timeout_is_flagged(tmp_path):
    violations = _check(
        """
        jobs:
          hangs:
            runs-on: ubuntu-latest
            steps:
              - uses: actions/checkout@v4
              - uses: ./.github/actions/setup-repro
        """,
        tmp_path,
    )
    assert len(violations) == 1
    assert violations[0][1] == "hangs"
    assert "timeout-minutes" in violations[0][2]


def test_handrolled_preamble_is_flagged(tmp_path):
    violations = _check(
        """
        jobs:
          drifted:
            runs-on: ubuntu-latest
            timeout-minutes: 10
            steps:
              - uses: actions/checkout@v4
              - uses: actions/setup-python@v5
                with:
                  python-version: "3.11"
              - run: pip install -e .
        """,
        tmp_path,
    )
    assert len(violations) == 1
    assert "setup-repro" in violations[0][2]


def test_checkout_alone_is_not_enough(tmp_path):
    # checkout is a prerequisite of the composite action, not a
    # substitute for it
    violations = _check(
        """
        jobs:
          bare:
            runs-on: ubuntu-latest
            timeout-minutes: 5
            steps:
              - uses: actions/checkout@v4
              - run: python tools/check_ci.py
        """,
        tmp_path,
    )
    assert [v[1] for v in violations] == ["bare"]


def test_reusable_workflow_job_is_exempt(tmp_path):
    violations = _check(
        """
        jobs:
          fanout:
            uses: ./.github/workflows/other.yml
        """,
        tmp_path,
    )
    assert violations == []


def test_both_violations_report_separately(tmp_path):
    violations = _check(
        """
        jobs:
          worst:
            runs-on: ubuntu-latest
            steps:
              - run: "true"
        """,
        tmp_path,
    )
    assert len(violations) == 2


def test_bench_is_the_only_bench_verb():
    # scale.* and costmodel.* are `repro bench` case families now
    from repro.cli import build_parser

    verbs = check_ci._subcommands(build_parser())
    assert "bench" in verbs and "scale" not in verbs
    assert set(check_ci._subcommands(verbs["costmodel"])) == {"fit"}


def test_removed_cli_verb_is_flagged(tmp_path):
    violations = _check(
        """
        jobs:
          stale:
            runs-on: ubuntu-latest
            timeout-minutes: 10
            steps:
              - uses: actions/checkout@v4
              - uses: ./.github/actions/setup-repro
              - run: |
                  python -m repro bench --filter scale.bfs.2x4 \\
                    --out BENCH_scale.json
                  python -m repro scale --filter scale.bfs.2x4
                  python -m repro runs diff a b
              - run: python -m repro costmodel bench --out B.json
        """,
        tmp_path,
    )
    assert [v[1] for v in violations] == ["stale", "stale"]
    assert "'repro scale'" in violations[0][2]
    assert "'repro costmodel bench'" in violations[1][2]


def test_unparseable_workflow_is_a_violation(tmp_path):
    file = tmp_path / "broken.yml"
    file.write_text("jobs: [this: {is: not\n")
    violations = check_ci.check_workflow(file)
    assert violations and "cannot parse" in violations[0][2]


def test_committed_workflows_are_clean(monkeypatch):
    monkeypatch.chdir(REPO)
    violations = check_ci.check_workflows(
        [REPO / ".github" / "workflows"]
    )
    formatted = "\n".join(
        f"{p}: {job}: {msg}" for p, job, msg in violations
    )
    assert not violations, "\n" + formatted


def test_cli_exit_codes(tmp_path):
    script = REPO / "tools" / "check_ci.py"
    clean = tmp_path / "clean.yml"
    clean.write_text(textwrap.dedent(CLEAN))
    dirty = tmp_path / "dirty.yml"
    dirty.write_text(
        "jobs:\n  bad:\n    runs-on: ubuntu-latest\n"
        "    steps:\n      - run: 'true'\n"
    )
    ok = subprocess.run(
        [sys.executable, str(script), str(clean)],
        capture_output=True, cwd=REPO,
    )
    assert ok.returncode == 0
    bad = subprocess.run(
        [sys.executable, str(script), str(dirty)],
        capture_output=True, text=True, cwd=REPO,
    )
    assert bad.returncode == 1
    assert "bad" in bad.stdout
