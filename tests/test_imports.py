"""What start-up imports: module names, not timings, so any host agrees.

Cold start is import. ``import repro`` is a PEP 562 package that loads
a submodule on first use, and SciPy is loaded only by the LP/MILP
solvers that call it. Each CLI verb loads only what its handler runs:
the parser reads the registries' names without NumPy, ``explain``
reads a ledger without the engine, and a run loads no engine or fault
injector it was not asked for. Each case runs in a fresh interpreter
and reads ``sys.modules``.

The same module sets also give each verb's loaded-source budget: with
no bytecode on disk a cold process compiles every line it imports, so
the line count is a cold-start cost that reads the same on every host.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

SOURCE = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: modules whose ``__all__`` must resolve: packages whose ``__init__``
#: resolves its names lazily, and the plain ``repro.backend`` module
EXPORTERS = ("repro", "repro.core", "repro.runtime", "repro.graph",
             "repro.backend", "repro.obs", "repro.bench", "repro.runs",
             "repro.algorithms", "repro.partition", "repro.chaos",
             "repro.baselines")

#: the ``TX``/bfs@4 workload of the run budgets
RUN = ["run", "--graph", "TX", "--algorithm", "bfs", "--gpus", "4",
       "--json"]

#: source lines of the ``repro`` modules loaded by each verb, at most:
#: a change may lower a number freely; raising one needs a reason in
#: CHANGES.md. ``run`` is ``RUN + ["--record"]``; ``explain`` and
#: ``replay`` read the run it recorded.
LOADED_LINES = {"help": 2119, "run": 13973, "explain": 4131,
                "replay": 5528}

#: every subpackage must import cleanly when it is the first one loaded
SUBPACKAGES = ("algorithms", "runtime", "obs", "core", "chaos", "backend",
               "graph", "runs", "replay", "bench", "partition", "baselines")


def loaded_after(code: str, cwd) -> set:
    """Public module names loaded once ``code`` has run (or exited)."""
    script = (
        "import json, sys\n"
        "try:\n"
        + textwrap.indent(textwrap.dedent(code), "    ")
        + "\nexcept SystemExit:\n"
        "    pass\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SOURCE),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stderr.strip().splitlines()[-1])
    return {name for name in names if not name.startswith("_")}


@pytest.fixture(scope="module")
def verb_modules(tmp_path_factory) -> dict:
    """``{verb: loaded module names}`` of the gated verbs, in order,
    in one scratch directory (so ``latest`` is the recorded run)."""
    cwd = tmp_path_factory.mktemp("verbs")
    argvs = {
        "help": ["--help"],
        "run": RUN + ["--record"],
        "explain": ["explain", "latest"],
        "replay": ["replay", "latest", "--check"],
    }
    return {
        # --help leaves through SystemExit before the assert
        verb: loaded_after(
            f"from repro.cli import main; assert main({argv!r}) == 0", cwd
        )
        for verb, argv in argvs.items()
    }


def source_lines(names: set) -> int:
    """Source lines of the ``repro`` modules among ``names``."""
    total = 0
    for name in _under(names, "repro"):
        path = pathlib.Path(SOURCE).joinpath(*name.split("."))
        path = path / "__init__.py" if path.is_dir() else \
            path.with_suffix(".py")
        total += len(path.read_text().splitlines())
    return total


def _roots(names: set) -> set:
    return {name.split(".")[0] for name in names}


def _under(names: set, *packages: str) -> list:
    """The loaded names that are one of ``packages`` or inside one."""
    return sorted(name for name in names if any(
        name == package or name.startswith(package + ".")
        for package in packages
    ))


def test_help_loads_no_numpy_and_no_graph(verb_modules):
    loaded = verb_modules["help"]
    assert "repro.cli" in loaded
    assert _under(loaded, "numpy", "repro.graph.csr") == []


def test_run_and_explain_load_only_what_they_run(verb_modules):
    """A default gum run loads no baseline engine and, without
    ``--chaos``, no fault scenario; ``explain`` on the run it recorded
    reads the ledger without the engine stack or NumPy."""
    loaded = verb_modules["run"]
    assert "repro.core.gum" in loaded
    assert _under(loaded, "repro.baselines.groute", "repro.baselines.gunrock",
                  "repro.chaos.scenario") == []
    loaded = verb_modules["explain"]
    assert "repro.obs.ledger" in loaded
    assert _under(loaded, "numpy", "repro.core.costmodel", "repro.core.milp",
                  "repro.hardware") == []
    # the package is the parser's name registry; no vertex program loads
    assert _under(loaded, "repro.algorithms") == ["repro.algorithms"]


@pytest.mark.parametrize("verb", sorted(LOADED_LINES))
def test_each_verb_loads_within_its_source_line_budget(verb, verb_modules):
    lines = source_lines(verb_modules[verb])
    assert lines <= LOADED_LINES[verb], (
        f"{verb} loads {lines} repro source lines, budget "
        f"{LOADED_LINES[verb]}"
    )


def test_import_repro_loads_neither_numpy_nor_scipy(tmp_path):
    assert not _roots(loaded_after("import repro", tmp_path)) & {
        "numpy", "scipy"
    }


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["run", "--graph", "TX", "--algorithm", "bfs", "--gpus", "4", "--json"],
], ids=["help", "default-run"])
def test_cli_without_an_lp_solver_loads_no_scipy(argv, tmp_path):
    loaded = loaded_after(
        f"from repro.cli import main; main({argv!r})", tmp_path
    )
    assert "repro.cli" in loaded
    assert "scipy" not in _roots(loaded)


def test_an_lp_solver_loads_scipy_when_it_solves(tmp_path):
    loaded = loaded_after("""
        import numpy as np
        from repro.core import FStealProblem, make_solver
        solver = make_solver("lp")
        assert "scipy" not in sys.modules
        solver.solve(FStealProblem(np.ones((2, 2)), np.array([3, 1])))
    """, tmp_path)
    assert "scipy.optimize" in loaded


@pytest.mark.parametrize("package", EXPORTERS)
def test_every_exported_name_resolves_and_is_listed(package):
    module = __import__(package, fromlist=["__all__"])
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


def test_each_subpackage_imports_first_without_a_cycle(tmp_path):
    """The eager package used to import in one fixed order, which hid
    real cycles; every subpackage must now load as the first import."""
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-c", f"import repro.{name}"], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SOURCE),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for name in SUBPACKAGES
    }
    failed = {}
    for name, proc in procs.items():
        __, stderr = proc.communicate(timeout=120)
        if proc.returncode != 0:
            failed[name] = stderr.strip().splitlines()[-1]
    assert failed == {}
