"""Shared infrastructure for the experiment benchmarks.

Each ``benchmarks/test_*.py`` regenerates one table or figure of the
paper. Conventions:

* every benchmark runs its experiment exactly once
  (``benchmark.pedantic(..., rounds=1)``) — the *virtual* times inside
  the experiment are the result, the wall time only measures the
  simulator;
* the rendered artifact (the paper-style table/series) is printed and
  also written to ``benchmarks/results/<name>.txt`` so it survives
  pytest's output capture. The written file holds only what is
  deterministic given the seed, so a regeneration that changes it is
  a change to the reproduction (CI diffs it); host-time columns of the
  simulator itself are printed only;
* graph sizes honor ``REPRO_SCALE`` (see ``repro.config``).
"""

import pathlib

import pytest

from repro.core import GumConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str, host: str = "") -> str:
    """Print an artifact and persist it under ``benchmarks/results``.

    ``host`` holds the host-time measurements that go with ``text``;
    they differ from run to run, so they are printed and never written.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n(written to {path})")
    if host:
        print(f"----- {name}: host time (not written) -----\n{host}")
    return text


@pytest.fixture(scope="session")
def gum_config():
    """The full GUM configuration used across experiments.

    Uses the *learned* polynomial cost model (trained once per
    session), exactly as the paper's system does.
    """
    return GumConfig(cost_model="default")


@pytest.fixture(scope="session")
def oracle_config():
    """Oracle-cost-model variant for experiments that isolate policy
    effects from cost-model error (Exp-7 quantifies that error)."""
    return GumConfig(cost_model="oracle")
