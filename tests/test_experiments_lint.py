"""The prose check of EXPERIMENTS.md (tools/check_experiments.py).

Every number in a bold span of a "measured" column must occur in the
results file its section names; a regenerated table that moves a
number then fails the check until the prose follows. These tests run
it on a passing and a drifted fixture, and on this checkout.
"""

import pathlib
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_experiments  # noqa: E402

_EXPERIMENTS = """\
# EXPERIMENTS

## Figure 8 — FSteal effectiveness
`benchmarks/test_fig8_fsteal.py` → `results/fig8_fsteal.txt`

| claim (paper) | measured |
|---|---|
| stall collapses to ~4% | run stall **26% → 7%** |
| end-to-end gain, **2×** in the paper | **1.24×** end-to-end on SSSP/SW |

## Table V — cost-model families
`benchmarks/test_table5_costmodel.py` → `results/table5_costmodel.txt`

| model | paper RMSRE | measured RMSRE (held-out) |
|---|---|---|
| linear | **26.7** | **0.205** |
"""


def _checkout(tmp_path, fig8):
    (tmp_path / "EXPERIMENTS.md").write_text(_EXPERIMENTS)
    results = tmp_path / "benchmarks" / "results"
    results.mkdir(parents=True)
    (results / "fig8_fsteal.txt").write_text(textwrap.dedent(fig8))
    (results / "table5_costmodel.txt").write_text("linear  0.2051\n")
    return tmp_path


def test_quoted_numbers_found_in_their_tables_pass(tmp_path):
    root = _checkout(tmp_path, """\
        stall without FSteal 26.1%, with 7.0%
        end to end 1.24x
        """)
    # the paper's bold numbers are not in a measured column
    assert check_experiments.check(root) == (4, [])
    assert check_experiments.main(["check", str(root)]) == 0


def test_a_drifted_number_fails(tmp_path):
    root = _checkout(tmp_path, """\
        stall without FSteal 26.1%, with 7.0%
        end to end 1.19x
        """)
    checked, violations = check_experiments.check(root)
    assert checked == 4
    assert violations == [
        "EXPERIMENTS.md:9: 1.24 (in **1.24×**) does not occur in "
        "results/fig8_fsteal.txt"
    ]
    assert check_experiments.main(["check", str(root)]) == 1


def test_a_drifted_single_digit_fails(tmp_path):
    """A ``7`` that now reads ``17`` is not found inside it."""
    root = _checkout(tmp_path, """\
        stall without FSteal 26.1%, with 17.0%
        end to end 1.24x
        """)
    assert check_experiments.check(root)[1] == [
        "EXPERIMENTS.md:8: 7 (in **26% → 7%**) does not occur in "
        "results/fig8_fsteal.txt"
    ]


def test_a_quoted_number_is_a_printed_one_rounded():
    rounds_to = check_experiments.rounds_to
    assert rounds_to("6.8", "ratio = 6.77x") and rounds_to("7", "6.9%")
    assert rounds_to("0.205", "0.2051")
    for printed in ("17%", "0.7", "7.6 and 78"):
        assert not rounds_to("7", printed)
    # an integer is not a rounded decimal
    assert not rounds_to("6.8", "7")


def test_the_checkout_is_clean():
    checked, violations = check_experiments.check(REPO)
    assert checked >= 36 and violations == []
