"""Run artifacts: CSV tables, JSON summaries, and the sweep plot script.

All reals are written with 17 significant digits so files round-trip losslessly
and repeated runs with the same configuration and seed are bit-identical.
"""

from __future__ import annotations

import csv
import json
import numbers
from pathlib import Path

import numpy as np

from .errors import InputDomainError, MissingInputError
from .model import AmbiguityProblem, is_number
from .shooting import (BETA_RTOL, PotentialGrid, ThresholdSolution,
                       extinction_level, node_layout)

SOLUTION_CSV = "solution.csv"
FD_CSV = "vprime_fd.csv"
PATHS_CSV = "paths.csv"
HISTOGRAM_CSV = "occupation.csv"
SWEEP_CSV = "sweep.csv"
PLOT_SCRIPT = "sweep.gnuplot"
SUMMARY_JSON = "summary.json"
CONFIG_ECHO_JSON = "resolved_config.json"
_CHUNK_ROWS = 256


def _write_table(path, header, columns):
    """Columns as CSV rows of ``%.17g`` values (integers exact to 2**53).

    Formats ``_CHUNK_ROWS`` rows per ``%`` operation: one operation per
    value is slower, and one for the whole table holds all its text at once.
    """
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            part = table[start:start + _CHUNK_ROWS]
            fh.write((line * len(part)) % tuple(part.ravel().tolist()))


def write_solution_csv(path, sol: ThresholdSolution):
    """Columns: x, v, vprime; ascending x across both sides of the threshold."""
    xs = np.concatenate((sol.grid.grid_x, sol.grid.grid_right_x))
    _write_table(path, ["x", "v", "vprime"], (xs, sol.v(xs), sol.vprime(xs)))


def write_fd_csv(path, sol: ThresholdSolution):
    """Finite-difference companion slopes recorded during the solve."""
    g = sol.grid
    _write_table(path, ["x", "h", "vprime_minus", "vprime_plus"],
                 (g.fd_x, g.fd_h, g.fd_slope_minus, g.fd_slope_plus))


def write_solution(out, sol: ThresholdSolution):
    """A solution's two CSVs in directory ``out``; see ``load_solution``."""
    write_solution_csv(out / SOLUTION_CSV, sol)
    write_fd_csv(out / FD_CSV, sol)


def problem_block(problem: AmbiguityProblem) -> dict:
    """The ``problem`` block of ``summary.json``; ``load_solution`` checks it."""
    return {
        "epsilon": problem.epsilon,
        "x_eps": problem.drift_peak,
        "x_bar_eps": problem.drift_zero,
        "x_max": problem.x_max,
    }


def solution_block(sol: ThresholdSolution) -> dict:
    """The ``solution`` block of ``summary.json``; see ``load_solution``."""
    return {
        "beta_eps": sol.threshold,
        "ell_eps": sol.long_run_yield,
        "iterations": sol.iterations,
        "beta_tolerance": sol.beta_tolerance,
        "x_min": sol.x_min,
        "regime": sol.regime,
    }


def _read_csv(path, columns):
    """Float columns of a CSV table headed by ``columns``; a missing, empty,
    ragged or non-numeric table raises ``MissingInputError`` naming it."""
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"required file {p} is missing")
    with open(p, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != columns:
            raise MissingInputError(
                f"{p} has columns {header}, expected {columns}")
        try:
            rows = [[float(v) for v in row] for row in r]
        except ValueError as exc:
            raise MissingInputError(f"{p} holds a non-number: {exc}")
    if not rows or any(len(row) != len(columns) for row in rows):
        raise MissingInputError(
            f"{p} needs one or more rows of {len(columns)} values")
    return [np.array(col) for col in zip(*rows)]


# What ``load_solution`` accepts in each key of the ``solution`` block.
_SOLUTION_RULES = {
    "beta_eps": lambda v: is_number(v) and v > 0.0,
    "iterations": lambda v: (is_number(v) and isinstance(v, numbers.Integral)
                             and v >= 1),
}


def load_solution(run_dir, problem: AmbiguityProblem) -> ThresholdSolution:
    """Rebuild the solution that ``write_solution`` and ``solution_block``
    persisted in ``run_dir``.

    The nodes are the solve's ``node_layout(problem, beta_eps)``, with the
    slopes of ``solution.csv`` and ``vprime_fd.csv``, and
    ``PotentialGrid.from_slopes`` assembles the potential from them as the
    solve does, so the reload is the solve's potential bit for bit and its
    ``solution_block`` is the solve's; only the probe trace is not kept.
    A missing or malformed file, a ``solution`` value that breaks its
    ``_SOLUTION_RULES`` entry, ``x`` or ``h`` columns that are not exactly
    the layout's, or a derived value other than the solve's (``ell_eps``
    the drift at ``beta_eps``, ``beta_tolerance`` ``BETA_RTOL * drift_zero``
    and ``regime`` ``"extinction_bound"`` exactly when ``beta_eps`` is the
    b* of ``extinction_level``) raises ``MissingInputError``, and a run
    whose ``problem`` block is not ``problem_block(problem)`` (solved at
    another level or for another model) raises ``InputDomainError``.
    """
    run = Path(run_dir)
    summary_path = run / SUMMARY_JSON
    if not summary_path.exists():
        raise MissingInputError(f"required file {summary_path} is missing")
    expected = problem_block(problem)
    try:
        summary = json.loads(summary_path.read_text())
        solved_for = {key: summary["problem"][key] for key in expected}
        block = summary["solution"]
        for key, ok in _SOLUTION_RULES.items():
            if not ok(block[key]):
                raise ValueError(f"malformed {key} {block[key]!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingInputError(
            f"{summary_path} lacks a readable problem or solution: {exc}")
    for key, value in expected.items():
        if solved_for[key] != value:
            raise InputDomainError(
                f"{summary_path} holds a solution for {key} = "
                f"{solved_for[key]!r}, not the configured {value!r}")

    xs, _, vps = _read_csv(run / SOLUTION_CSV, ["x", "v", "vprime"])
    fd_x, fd_h, fd_lo, fd_hi = _read_csv(
        run / FD_CSV, ["x", "h", "vprime_minus", "vprime_plus"])
    threshold = float(block["beta_eps"])
    layout = node_layout(problem, threshold)
    grids = np.concatenate((layout.grid_x, layout.grid_right_x))
    if not (np.array_equal(xs, grids) and np.array_equal(fd_x, layout.fd_x)
            and np.array_equal(fd_h, layout.fd_h)):
        raise MissingInputError(
            f"{run / SOLUTION_CSV} and {run / FD_CSV} do not hold the nodes "
            f"laid out for beta_eps {threshold!r} in {summary_path}")
    derived = {
        "ell_eps": float(problem.drift(threshold)),
        "beta_tolerance": BETA_RTOL * problem.drift_zero,
        "regime": ("extinction_bound"
                   if threshold == extinction_level(problem)[1]
                   else "interior")}
    for key, value in derived.items():
        if block.get(key) != value:
            raise MissingInputError(
                f"{summary_path} holds {key} {block.get(key)!r}, not the "
                f"solve's {value!r} at beta_eps")
    nodes_slope = np.empty_like(layout.nodes_x)
    for x, slope in ((layout.grid_x, vps[:layout.grid_x.size]),
                     (fd_x - fd_h, fd_lo), (fd_x + fd_h, fd_hi)):
        nodes_slope[np.searchsorted(layout.nodes_x, x)] = slope
    grid = PotentialGrid.from_slopes(problem, threshold, layout, nodes_slope)
    return ThresholdSolution(
        problem=problem, threshold=threshold,
        long_run_yield=derived["ell_eps"], grid=grid, bisection_trace=(),
        iterations=block["iterations"],
        beta_tolerance=derived["beta_tolerance"], regime=derived["regime"])


def write_paths_csv(path, per_path):
    _write_table(path, ["path_id", "harvest_total", "kl_penalty",
                        "payoff_estimate", "aborted_flag"],
                 np.array([(s.path_id, s.harvest_total, s.kl_penalty,
                            s.payoff_estimate, s.aborted)
                           for s in per_path]).T)


def write_histogram_csv(path, beta, per_path):
    counts = np.sum([s.occupation_histogram for s in per_path], axis=0)
    edges = np.linspace(0.0, beta, len(counts) + 1)
    _write_table(path, ["bin_lo", "bin_hi", "count"],
                 (edges[:-1], edges[1:], counts))


def write_sweep_csv(path, rows):
    header = ["epsilon", "x_eps", "x_bar_eps", "beta_eps", "ell_eps",
              "iterations", "wall_ms"]
    _write_table(path, header,
                 np.array([[getattr(r, k) for k in header] for r in rows]).T)


def write_plot_script(path):
    """Gnuplot commands referencing the sweep CSV by relative path."""
    text = f"""\
set datafile separator ','
set key autotitle columnhead
set xlabel 'ambiguity level'
set grid

set terminal pngcairo size 900,600
set output 'threshold_vs_ambiguity.png'
set ylabel 'optimal threshold'
plot '{SWEEP_CSV}' using 1:4 with linespoints title 'threshold'

set output 'yield_vs_ambiguity.png'
set ylabel 'optimal long-run yield'
plot '{SWEEP_CSV}' using 1:5 with linespoints title 'yield'
unset output
"""
    Path(path).write_text(text)


def write_json(path, payload: dict):
    """Strict JSON: ``NaN`` and the infinities are written as ``null``."""
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    Path(path).write_text(json.dumps(strict, indent=2, sort_keys=True,
                                     allow_nan=False) + "\n")
