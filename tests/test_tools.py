"""The benchmark tools in ``tools/`` must still find what they time.

``bench_step._phases`` splits ``simulate._run_paths``'s block loop by
reading its source; if a rewrite of the loop moves the markers it keys on,
it maps nothing and every sample reads "other".  ``bench_solve`` wraps the
module attributes named in ``PHASES``; a rename breaks it only when run.
``same_outputs`` takes its cases from perfbench's workloads, which import
their own ``oracles``; its ``--list`` resolves them in a fresh interpreter.
"""

import importlib
import os
import pathlib
import subprocess
import sys

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


def test_same_outputs_case_list_resolves():
    # perfbench's eight solve cases and two tabulated ones, solve and verify
    # each, and one reload simulate.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, str(TOOLS / "same_outputs.py"), "--list"],
        env=dict(os.environ, PYTHONPATH=str(src),
                 PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    labels = [line.split()[0] for line in out.stdout.splitlines()]
    cases = {label.split("/")[0] for label in labels}
    assert len(cases) == 10 and {"vp-eps1", "tab-eps1"} <= cases
    assert len(labels) == 21 and labels[-1] == "vp-eps1/simulate"
    assert "--no-inline-solve" in out.stdout.splitlines()[-1]
