"""``examples/chaos_drill.py``: every committed scenario is drilled."""

import importlib.util
from pathlib import Path

import pytest

DRILL = Path(__file__).resolve().parents[2] / "examples" / "chaos_drill.py"


@pytest.fixture(scope="module")
def chaos_drill():
    spec = importlib.util.spec_from_file_location("chaos_drill", DRILL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_drill_covers_every_committed_scenario(
    chaos_drill, repo_scenarios, monkeypatch, capsys
):
    drilled = []
    monkeypatch.setattr(chaos_drill, "drill",
                        lambda path, **kwargs: drilled.append(path))
    assert chaos_drill.main([]) == 0
    assert drilled == repo_scenarios
    assert f"all {len(repo_scenarios)} drill(s) passed" in (
        capsys.readouterr().out
    )


def test_a_failure_by_design_is_drilled_as_an_outcome(
    chaos_drill, scenario_dir, capsys
):
    chaos_drill.drill(scenario_dir / "solver-exhausted.json")
    assert "fails by design at iteration 1, twice: SolverError: all " \
        "solver backends failed" in capsys.readouterr().out
