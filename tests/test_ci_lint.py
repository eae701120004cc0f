"""The CI lint guards: tools/check_ci.py and, at the end of the file,
the function-length limit tools/check_function_length.py.

Workflow jobs are copy-paste-prone: a job that omits
``timeout-minutes`` hangs for GitHub's six-hour default, and a job
that hand-rolls the setup preamble instead of using the
``.github/actions/setup-repro`` composite action drifts away from the
others, and a step that invokes a ``python -m repro`` subcommand the
CLI no longer defines only fails once the job runs. These tests prove
the checker detects all three failure modes and that the committed
workflows are currently clean.
"""

import ast
import pathlib
import re
import shutil
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_ci  # noqa: E402
import check_function_length  # noqa: E402


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


# ----------------------------------------------------------------------
# tools/check_function_length.py: the function-length limit
# ----------------------------------------------------------------------
def _function(lines: int) -> str:
    """Source of a method ``Planner.plan`` exactly ``lines`` lines long."""
    body = "".join(f"        x{i} = {i}\n" for i in range(lines - 1))
    return f"class Planner:\n    def plan(self):\n{body}"


def _tree_with(tmp_path, lines: int):
    """A repo-shaped temp tree holding one function of ``lines`` lines."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "long.py").write_text(_function(lines))
    return tmp_path


def test_committed_tree_passes_the_length_ratchet():
    assert check_function_length.check_tree(REPO) == []


def test_only_the_entry_point_imports_the_cli():
    """``repro.cli`` is the top layer: library code that needs what it
    prints (the manifest ``summary``) imports it from ``repro.runs``."""
    pattern = re.compile(
        r"^\s*(from repro\.cli\b|import repro\.cli\b"
        r"|from repro import .*\bcli\b)", re.MULTILINE,
    )
    offenders = [
        path.relative_to(REPO).as_posix()
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        if path.name != "__main__.py" and pattern.search(path.read_text())
    ]
    assert offenders == []


def _import_time_imports(tree):
    """Dotted names of the modules a file imports when it is loaded:
    everything outside function bodies and ``if TYPE_CHECKING:``
    blocks (class bodies run at import too)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith(
                "TYPE_CHECKING"):
            yield from _import_time_imports(ast.Module(node.orelse, []))
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        else:
            yield from _import_time_imports(node)


def _import_time_modules(tree):
    """Top-level names of :func:`_import_time_imports`."""
    for name in _import_time_imports(tree):
        yield name.split(".")[0]


def test_scipy_is_imported_where_it_is_called():
    """SciPy is two-thirds of a cold ``import repro`` and only the
    LP/MILP solvers call it, so no module imports it at load time —
    except ``algorithms/validate.py``, the oracle only tests and
    benchmarks reach."""
    source = REPO / "src" / "repro"
    offenders = [
        path.relative_to(source).as_posix()
        for path in sorted(source.rglob("*.py"))
        if "scipy" in _import_time_modules(ast.parse(path.read_text()))
    ]
    assert offenders == ["algorithms/validate.py"]
    fixture = ast.parse(textwrap.dedent("""
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            from scipy import sparse
        def solve():
            from scipy.optimize import milp
        try:
            import scipy.sparse as sp
        except ImportError:
            sp = None
    """))
    assert list(_import_time_modules(fixture)) == ["typing", "scipy"]


#: the repro modules ``cli.py`` may import at load time: the package
#: (``__version__``), the errors, and the four name registries its
#: parser reads, each of which gives its names without NumPy
CLI_IMPORT_ALLOW = frozenset({
    "repro", "repro.errors", "repro.algorithms", "repro.graph.datasets",
    "repro.partition.partitioners", "repro.bench.workloads",
})


def _disallowed_cli_imports(tree):
    """Load-time imports of ``tree`` that are neither standard library
    nor on :data:`CLI_IMPORT_ALLOW`."""
    return [
        name for name in _import_time_imports(tree)
        if name.split(".")[0] not in sys.stdlib_module_names
        and name != "__future__" and name not in CLI_IMPORT_ALLOW
    ]


def test_cli_imports_only_numpy_free_modules_at_load_time():
    """``repro --help`` is the parser alone: ``cli.py`` imports the
    engine, NumPy or any other heavy module inside the handler that
    runs it (tests/test_imports.py checks the help path loads no
    NumPy)."""
    tree = ast.parse((REPO / "src" / "repro" / "cli.py").read_text())
    assert _disallowed_cli_imports(tree) == []
    fixture = ast.parse(textwrap.dedent("""
        from __future__ import annotations
        import json
        from typing import TYPE_CHECKING
        from repro.algorithms import ALGORITHMS
        if TYPE_CHECKING:
            from repro.core import GumConfig
        def handler():
            from repro.obs.ledger import Ledger
        import numpy as np
        from repro.graph import datasets
        from repro.runtime.metrics import RunResult
    """))
    assert _disallowed_cli_imports(fixture) == [
        "numpy", "repro.graph", "repro.runtime.metrics",
    ]


def test_nothing_imports_multiprocessing():
    """The thread path is a pool of threads in one process: no
    module spawns a process or maps a shared block, at load time or
    inside a function."""
    source = REPO / "src" / "repro"
    offenders = []
    for path in sorted(source.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "multiprocessing"
                   for name in names):
                offenders.append(path.relative_to(source).as_posix())
    assert offenders == []


def test_per_superstep_modules_do_not_call_np_unique():
    """Vertex-id sets de-duplicate through the bitmap kernel
    (``graph.gather.distinct_vertices``), not hash ``np.unique`` —
    57 % of ``dense-social``'s wall before it was replaced. One-time
    uses (``Frontier.__init__``, generators, partitioners, tree
    thresholds) live outside these modules and stay legal."""
    source = REPO / "src" / "repro"
    files = [source / "runtime" / "bsp.py", source / "backend.py"]
    for package in ("algorithms", "baselines"):
        files.extend(sorted((source / package).rglob("*.py")))
    pattern = re.compile(r"\b(np|numpy)\.unique\b")
    offenders = [
        path.relative_to(REPO).as_posix()
        for path in files if pattern.search(path.read_text())
    ]
    assert offenders == []


def _lengths(relative: str) -> dict:
    return dict(check_function_length.function_lengths(
        REPO / "src" / "repro" / relative
    ))


def test_arbitrator_functions_stay_short():
    """The staged decision path: ``plan`` reads in one screen."""
    lengths = _lengths("core/arbitrator.py")
    assert lengths["GumScheduler.plan"] <= 60
    assert max(lengths.values()) <= 80


def test_engine_loops_and_the_parser_stay_short():
    """The two functions the allow-list used to excuse, and the files
    they live in: the engine loops are the run envelope plus named
    phases, the parser one registrar per verb."""
    assert _lengths("runtime/bsp.py")["BSPEngine.run"] <= 60
    assert _lengths("cli.py")["build_parser"] <= 40
    for relative in ("cli.py", "runtime/bsp.py", "baselines/groute.py"):
        assert max(_lengths(relative).values()) <= 100, relative


def test_cli_has_one_observed_run_path():
    """``run`` / ``compare`` / ``profile`` / ``runs record`` share one
    pipeline: one site manages the tracer's lifetime, each sink kind is
    built once, one call records a run, and parsed arguments are
    read-only (a value derived from them is returned, not written
    back)."""
    tree = ast.parse((REPO / "src" / "repro" / "cli.py").read_text())

    def called(node):
        return getattr(node.func, "attr", getattr(node.func, "id", None))

    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    closes = [
        c for c in calls if called(c) == "close"
        and getattr(c.func.value, "id", None) == "tracer"
    ]
    managed = [
        item for n in ast.walk(tree) if isinstance(n, ast.With)
        for item in n.items
        if isinstance(item.context_expr, ast.Call)
        and called(item.context_expr) == "Tracer"
    ]
    assert len(closes) + len(managed) == 1
    built = [called(c) for c in calls]
    for once in ("Tracer", "JsonlSink", "ChromeTraceSink",
                 "record_result"):
        assert built.count(once) == 1, once
    stores = [
        ast.unparse(target)
        for n in ast.walk(tree)
        if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in getattr(n, "targets", None) or [n.target]
        if isinstance(target, ast.Attribute)
        and getattr(target.value, "id", None) == "args"
    ]
    assert stores == []


def test_obs_is_single_threaded_with_one_snapshot_formatter():
    """Nothing under ``repro.obs`` starts a thread or owns a queue (the
    trace sinks write on the engine thread, inside ``obs_seconds``),
    and each instrument kind's snapshot shape — a dict with a
    ``"type"`` key — is written in that instrument's ``snapshot`` and
    nowhere else."""
    obs = REPO / "src" / "repro" / "obs"
    imported = set()
    for path in sorted(obs.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
    assert not imported & {"threading", "queue", "concurrent",
                           "multiprocessing", "_thread"}

    def formatters(node, prefix=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{prefix}{child.name}"
                shapes = [
                    d for d in ast.walk(child) if isinstance(d, ast.Dict)
                    and any(getattr(key, "value", None) == "type"
                            for key in d.keys)
                ]
                if isinstance(child, ast.FunctionDef) and shapes:
                    yield name
                yield from formatters(child, f"{name}.")

    tree = ast.parse((obs / "metrics.py").read_text())
    assert sorted(formatters(tree)) == [
        "Counter.snapshot", "Gauge.snapshot", "Histogram.snapshot",
    ]


def test_overlong_function_is_flagged(tmp_path):
    limit = check_function_length.LIMIT
    assert check_function_length.check_tree(
        _tree_with(tmp_path / "ok", limit)
    ) == []
    violations = check_function_length.check_tree(
        _tree_with(tmp_path / "long", limit + 1)
    )
    assert len(violations) == 1
    assert "src/repro/long.py::Planner.plan" in violations[0]
    assert f"{limit + 1} lines" in violations[0]


def test_length_ratchet_cli_exit_codes(tmp_path):
    """Exit 0 on the checkout; non-zero once a copy of it gains one
    function a single line over the limit."""
    script = REPO / "tools" / "check_function_length.py"
    ok = subprocess.run([sys.executable, str(script)],
                        capture_output=True, cwd=tmp_path)
    assert ok.returncode == 0
    shutil.copytree(REPO / "src" / "repro", tmp_path / "src" / "repro")
    (tmp_path / "src" / "repro" / "long.py").write_text(
        _function(check_function_length.LIMIT + 1)
    )
    bad = subprocess.run(
        [sys.executable, str(script), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert bad.stdout.splitlines() == [
        "src/repro/long.py::Planner.plan: 121 lines (limit 120); "
        "split it into named stages"
    ]
