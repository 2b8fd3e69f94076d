"""Demos 01-04 run to completion in-process.

They exercise q_set, neighbor_of and the exhaustive solvers, and demo 04
asserts the duality of best_subset_by_q and min_total_after as it goes.
Demo 05 is checked byte for byte in test_lazy_greedy.
"""

import runpy

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("0[1-4]_*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
