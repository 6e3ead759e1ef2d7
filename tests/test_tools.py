"""The benchmark tools in ``tools/`` must still find what they time.

``bench_step._phases`` splits ``simulate._run_paths``'s block loop by
parsing its source; if a rewrite of the loop changes the structure it keys
on, lines land in the wrong phase, or in none and read "other".
``bench_solve`` wraps the module attributes named in ``PHASES``; a rename
breaks it only when run.
``same_outputs`` takes its cases from perfbench's workloads, which import
their own ``oracles``; its ``--list`` resolves them in a fresh interpreter.
"""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from ergharvest import simulate

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def tools_path(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))


def test_step_phases_cover_the_block_loop(tools_path):
    bench_step = importlib.import_module("bench_step")
    phase = bench_step._phases(simulate._run_paths)
    assert set(phase.values()) == {"step", "noise", "settle"}
    lines, first = inspect.getsourcelines(simulate._run_paths)
    tree = ast.parse(textwrap.dedent("".join(lines)))

    def span(node):
        return range(first + node.lineno - 1, first + node.end_lineno)

    # The fused worst-case loop walks zipped rows; the replay check reads
    # the chunk's proposals once the step loops are done.
    fused = [node for node in ast.walk(tree) if isinstance(node, ast.For)
             and ast.unparse(node.iter).startswith("zip(")]
    replay = [node for node in ast.walk(tree) if isinstance(node, ast.If)
              and "fmin.reduce(proposals" in ast.unparse(node.test)]
    assert len(fused) == len(replay) == 1
    assert {phase[line] for line in span(fused[0])} == {"step"}
    assert {phase[line] for line in span(replay[0])} == {"settle"}


def test_solve_phases_name_existing_attributes(tools_path):
    bench_solve = importlib.import_module("bench_solve")
    missing = [
        f"{module}.{name}" for module, name in bench_solve.PHASES.values()
        if not hasattr(importlib.import_module(f"ergharvest.{module}"), name)]
    assert not missing


def test_same_outputs_case_list_resolves():
    # perfbench's eight solve cases and two tabulated ones, solve and verify
    # each, and three reload simulates: one reference, two worst case.
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
    assert len(labels) == 23 and labels[-3:] == [
        "vp-eps1/simulate", "vp-eps1/simulate-worstcase",
        "vp-eps1/simulate-worstcase-dt0.25"]
    sims = out.stdout.splitlines()[-3:]
    assert all("--no-inline-solve" in line and "--jobs 1" in line
               for line in sims)
    assert ["--measure worstcase" in line for line in sims] == [
        False, True, True]
