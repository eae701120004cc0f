"""What start-up imports: module names, not timings, so any host agrees.

Cold start is import. ``import repro`` is a PEP 562 package that loads
a submodule on first use, and SciPy is loaded only by the LP/MILP
solvers that call it. Each case runs in a fresh interpreter and reads
``sys.modules``.
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
             "repro.backend", "repro.obs", "repro.bench", "repro.runs")

#: every subpackage must import cleanly when it is the first one loaded
SUBPACKAGES = ("algorithms", "runtime", "obs", "core", "chaos", "backend",
               "graph", "runs", "replay", "bench")


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


def _roots(names: set) -> set:
    return {name.split(".")[0] for name in names}


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
