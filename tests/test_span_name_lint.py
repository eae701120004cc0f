"""The telemetry-name lint guard (tools/check_span_names.py).

Span and metric names are a public contract — trace viewers, `runs
analyze`, `replay` and recorded manifests all key off them. The
checker forces
every literal name emitted by the library to appear backticked in
docs/observability.md's name tables, and every span-table row to be
emitted by some span call; these tests prove it detects the failure
modes it guards against and that the tree is currently clean.
"""

import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_span_names  # noqa: E402


def _names_for(source: str, tmp_path):
    file = tmp_path / "snippet.py"
    file.write_text(textwrap.dedent(source))
    return check_span_names.emitted_names(file)


def test_collects_literal_names(tmp_path):
    names = _names_for(
        """
        def go(tracer, metrics):
            with tracer.span("superstep", cat="engine"):
                metrics.counter("engine.iterations").inc()
            tracer.instant("osteal.group_change")
            metrics.histogram("engine.iteration_wall_seconds").observe(1.0)
        """,
        tmp_path,
    )
    assert sorted(n for _, _, n, _ in names) == [
        "engine.iteration_wall_seconds", "engine.iterations",
        "osteal.group_change", "superstep",
    ]
    assert all(not is_prefix for _, _, _, is_prefix in names)


def test_fstring_name_becomes_a_prefix(tmp_path):
    names = _names_for(
        """
        def go(tracer, kind):
            tracer.instant(f"chaos.{kind}", cat="chaos")
        """,
        tmp_path,
    )
    assert names[0][2] == "chaos."
    assert names[0][3] is True


def test_dynamic_names_are_out_of_scope(tmp_path):
    names = _names_for(
        """
        def go(metrics, name):
            metrics.counter(name).inc()
            metrics.gauge(f"{name}.depth").set(1)
        """,
        tmp_path,
    )
    assert names == []


def test_undocumented_matching():
    tokens = {"superstep", "chaos.kill_worker"}
    findings = [
        (pathlib.Path("x.py"), 1, "superstep", False),
        (pathlib.Path("x.py"), 2, "chaos.", True),
        (pathlib.Path("x.py"), 3, "mystery.metric", False),
    ]
    missing = check_span_names.undocumented(findings, tokens)
    assert [m[2] for m in missing] == ["mystery.metric"]


def test_repo_tree_is_documented(monkeypatch):
    monkeypatch.chdir(REPO)
    missing = check_span_names.undocumented(
        check_span_names.collect_names([REPO / "src" / "repro"]),
        check_span_names.documented_tokens(),
    )
    formatted = "\n".join(
        f"{p}:{line}: undocumented {name!r}"
        for p, line, name, __ in missing
    )
    assert not missing, "\n" + formatted


def test_cli_exit_codes(tmp_path):
    script = REPO / "tools" / "check_span_names.py"
    clean = tmp_path / "clean.py"
    clean.write_text("def a(t):\n    t.span('superstep')\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def a(t):\n    t.span('zz.unheard.of')\n")
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
    assert "zz.unheard.of" in bad.stdout


def test_span_record_names_are_collected(tmp_path):
    names = _names_for(
        """
        def go(worker):
            return SpanRecord(name="busy", track=f"gpu{worker}")
        """,
        tmp_path,
    )
    assert [n for _, _, n, _ in names] == ["busy"]


def test_stale_row_matching():
    rows = [("superstep", False), ("chaos.", True), ("zz.gone", False),
            ("chaos.kill_worker", False)]
    findings = [
        (pathlib.Path("x.py"), 1, "superstep", False),
        (pathlib.Path("x.py"), 2, "chaos.", True),
    ]
    assert check_span_names.stale_rows(rows, findings) == [
        ("zz.gone", False)
    ]


def test_repo_span_table_is_emitted(monkeypatch):
    monkeypatch.chdir(REPO)
    stale = check_span_names.stale_rows(
        check_span_names.span_vocabulary(),
        check_span_names.collect_names(
            [REPO / "src" / "repro"], check_span_names.SPAN_METHODS
        ),
    )
    assert not stale, stale


def test_cli_fails_on_a_stale_span_row(tmp_path):
    """A span-table row that no span call emits fails the default run."""
    docs = (REPO / "docs" / "observability.md").read_text()
    row = "| `superstep` | coordinator |"
    assert row in docs
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text(docs.replace(
        row, "| `zz.never.emitted` | coordinator | host | stale |\n" + row
    ))
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "repro").symlink_to(REPO / "src" / "repro")
    bad = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_span_names.py")],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert bad.returncode == 1
    assert bad.stdout.splitlines() == [
        "docs/observability.md: span 'zz.never.emitted' is emitted by no "
        "span call under src/repro"
    ]
