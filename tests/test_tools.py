"""The benchmark tools in ``tools/`` must still find what they time.

``bench_step._phases`` splits ``simulate._run_paths``'s block loop by
reading its source; if a rewrite of the loop moves the markers it keys on,
it maps nothing and every sample reads "other".  ``bench_solve`` wraps the
module attributes named in ``PHASES``; a rename breaks it only when run.
"""

import importlib
import pathlib

import pytest

from ergharvest import simulate

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def tools_path(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))


def test_step_phases_cover_the_block_loop(tools_path):
    bench_step = importlib.import_module("bench_step")
    phases = set(bench_step._phases(simulate._run_paths).values())
    assert phases == {"step", "noise", "settle"}


def test_solve_phases_name_existing_attributes(tools_path):
    bench_solve = importlib.import_module("bench_solve")
    missing = [
        f"{module}.{name}" for module, name in bench_solve.PHASES.values()
        if not hasattr(importlib.import_module(f"ergharvest.{module}"), name)]
    assert not missing
