"""Run artifacts: CSV tables, JSON summaries, and the sweep plot script.

All reals are written with 17 significant digits so files round-trip losslessly
and repeated runs with the same configuration and seed are bit-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import MissingInputError
from .model import AmbiguityProblem
from .shooting import (PotentialGrid, ThresholdSolution, _potential_value,
                       _slope_rhs)

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


def _read_csv(path, columns):
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"required file {p} is missing")
    with open(p, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header != columns:
            raise MissingInputError(
                f"{p} has columns {header}, expected {columns}")
        rows = [[float(v) for v in row] for row in r]
    return [np.array(col) for col in zip(*rows)]


def load_solution(run_dir, problem: AmbiguityProblem) -> ThresholdSolution:
    """Rebuild a usable solution from persisted artifacts.

    The solve's nodes are the grid of ``solution.csv`` and the
    finite-difference companions x +/- h of ``vprime_fd.csv``, with their
    slopes; the slope derivatives come from the ODE itself and the value
    from the solve's Hermite trapezoid, so the reloaded potential is the
    solve's bit for bit.  Without ``vprime_fd.csv`` the reload interpolates
    on the grid alone, and its slope and value differ from the solve's in
    about the tenth digit.
    """
    run = Path(run_dir)
    summary_path = run / SUMMARY_JSON
    if not summary_path.exists():
        raise MissingInputError(f"required file {summary_path} is missing")
    summary = json.loads(summary_path.read_text())
    try:
        threshold = float(summary["solution"]["beta_eps"])
        long_run_yield = float(summary["solution"]["ell_eps"])
        regime = summary["solution"]["regime"]
    except KeyError as exc:
        raise MissingInputError(f"{summary_path} lacks a solution block: {exc}")

    xs, _, vps = _read_csv(run / SOLUTION_CSV, ["x", "v", "vprime"])
    left = xs <= threshold
    fd_path = run / FD_CSV
    if fd_path.exists():
        fd_x, fd_h, fd_lo, fd_hi = _read_csv(
            fd_path, ["x", "h", "vprime_minus", "vprime_plus"])
    else:
        fd_x = fd_h = fd_lo = fd_hi = np.array([])
    known = ((xs[left], vps[left]), (fd_x - fd_h, fd_lo), (fd_x + fd_h, fd_hi))
    nodes_x = np.unique(np.concatenate([x for x, _ in known]))
    nodes_slope = np.empty_like(nodes_x)
    for x, slope in known:
        nodes_slope[np.searchsorted(nodes_x, x)] = slope
    nodes_deriv = _slope_rhs(problem, threshold, 0.0)(nodes_x, nodes_slope)

    grid = PotentialGrid(
        threshold=threshold, x_min=float(nodes_x[0]), nodes_x=nodes_x,
        nodes_slope=nodes_slope, nodes_slope_deriv=nodes_deriv,
        nodes_value=_potential_value(nodes_x, nodes_slope, nodes_deriv),
        grid_x=xs[left], grid_right_x=xs[~left],
        fd_x=fd_x, fd_h=fd_h, fd_slope_minus=fd_lo, fd_slope_plus=fd_hi)
    return ThresholdSolution(
        problem=problem, threshold=threshold, long_run_yield=long_run_yield,
        grid=grid, bisection_trace=(), beta_tolerance=float("nan"),
        regime=regime)


def write_paths_csv(path, per_path):
    _write_table(path, ["path_id", "harvest_total", "kl_penalty",
                        "payoff_estimate", "aborted_flag"],
                 np.array([(s.path_id, s.harvest_total, s.kl_penalty,
                            s.payoff_estimate, s.aborted)
                           for s in per_path]).T)


def write_histogram_csv(path, beta, n_bins, per_path):
    counts = np.zeros(n_bins, dtype=np.int64)
    for s in per_path:
        counts += s.occupation_histogram
    edges = np.linspace(0.0, beta, n_bins + 1)
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
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
