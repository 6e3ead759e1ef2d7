"""Per-step cost of the Monte Carlo engine on one pinned worker.

Compares two source trees (each a directory holding the ``ergharvest``
package, such as a checkout's ``src``) and prints a BENCH json document:

    python tools/bench_step.py PARENT_SRC CHANGE_SRC > BENCH.json

Every measurement runs in a fresh interpreter pinned to one CPU, with one
tree on ``sys.path``; each of ``PAIRS`` pairs of measurements runs both
trees, and the tree that goes first alternates from pair to pair.  A
worker solves the unit logistic model at eps = 1, warms up, times
``simulate._run_paths`` on ``lanes`` paths for ``STEPS`` steps of dt 1e-4
(the setting of the ROADMAP Baseline table), then runs the same paths
again while a thread
samples which line of ``_run_paths`` is executing.  The samples split the
timed cost into noise (drawing and scaling the normals), step (the
per-step recurrence) and settle (everything else in the block loop).  The
worker's peak RSS is ``ru_maxrss`` after both runs.
"""

from __future__ import annotations

import argparse
import ast
import collections
import dataclasses
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import textwrap
import threading
import time

LANES = (128, 256, 384, 1024)
PAIRS = 10
STEPS = 10000
MEASURES = ("reference", "worstcase")
SAMPLE_S = 2e-4


def _phases(run_paths):
    """Map each line of ``run_paths``'s block loop to its phase.

    The block loop is the ``while`` loop over ``done`` and the chunk loop
    the ``while`` loop inside it.  Every line of an innermost ``for`` loop
    of the chunk loop is "step": those loops run the recurrence, one pass
    per step.  The block loop's ``for`` loops and statements on ``drawn``
    before the chunk loop are "noise".  Every other line, the chunk's
    replay check included, is "settle".
    """
    lines, first = inspect.getsourcelines(run_paths)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    block = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.While)
                 and ast.unparse(node.test) == "done < n_steps")
    chunk = next(node for node in ast.walk(block)
                 if isinstance(node, ast.While) and node is not block)

    def span(node):
        return range(first + node.lineno - 1, first + node.end_lineno)

    phase = dict.fromkeys(span(block), "settle")
    for stmt in block.body[:block.body.index(chunk)]:
        if isinstance(stmt, ast.For) or "drawn" in {
                name.id for name in ast.walk(stmt)
                if isinstance(name, ast.Name)}:
            phase.update(dict.fromkeys(span(stmt), "noise"))
    for loop in ast.walk(chunk):
        if isinstance(loop, ast.For) and sum(
                isinstance(node, ast.For) for node in ast.walk(loop)) == 1:
            phase.update(dict.fromkeys(span(loop), "step"))
    return phase


def _sampled(fn, code):
    """Run ``fn`` while sampling the executing line of ``code``'s frame."""
    counts = collections.Counter()
    done = threading.Event()
    main = threading.get_ident()

    def sample():
        while not done.is_set():
            time.sleep(SAMPLE_S)
            frame = sys._current_frames().get(main)
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            if frame is not None:
                counts[frame.f_lineno] += 1

    old = sys.getswitchinterval()
    sys.setswitchinterval(SAMPLE_S / 2)
    thread = threading.Thread(target=sample)
    thread.start()
    try:
        fn()
    finally:
        done.set()
        thread.join()
        sys.setswitchinterval(old)
    return counts


def worker(lanes, measure):
    """One timed and one sampled run; returns the worker's figures."""
    from ergharvest import (AmbiguityProblem, SimConfig, VerhulstPearl,
                            simulate, solve_threshold)
    problem = AmbiguityProblem.build(VerhulstPearl(), 1.0)
    sol = solve_threshold(problem)
    dt = 1e-4
    cfg = SimConfig(problem=problem, beta=sol.threshold, x0=sol.threshold,
                    dt=dt, horizon=STEPS * dt, n_paths=lanes,
                    measure=measure, solution=sol, seed=1)
    ids = list(range(lanes))
    simulate._run_paths(dataclasses.replace(cfg, horizon=0.05), ids)
    t0 = time.perf_counter()
    simulate._run_paths(cfg, ids)
    us = 1e6 * (time.perf_counter() - t0) / cfg.n_steps
    phase = _phases(simulate._run_paths)
    counts = _sampled(lambda: simulate._run_paths(cfg, ids),
                      simulate._run_paths.__code__)
    split = collections.Counter()
    for line, k in counts.items():
        split[phase.get(line, "other")] += k
    total = sum(split.values())
    return {
        "us_per_step": us,
        "split_us_per_step": {p: us * split[p] / total
                              for p in ("noise", "step", "settle", "other")},
        "samples": total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _run_worker(src, lanes, measure, cpu):
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, __file__, "--worker", str(lanes), measure, str(cpu)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def stats(values):
    """Median and quartiles of a list of runs' figures."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _summary(runs):
    """Median and quartiles of each figure over the runs of one config."""
    return {
        "us_per_step": stats([r["us_per_step"] for r in runs]),
        "us_per_step_runs": [round(r["us_per_step"], 3) for r in runs],
        "split_us_per_step": {
            p: statistics.median(r["split_us_per_step"][p] for r in runs)
            for p in ("noise", "step", "settle", "other")},
        "peak_rss_mb": stats([r["peak_rss_mb"] for r in runs]),
    }


def versions(src):
    """numpy, scipy and Python versions seen with ``src`` on the path."""
    code = ("import numpy, scipy, sys; print(numpy.__version__, "
            "scipy.__version__, sys.version.split()[0])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    numpy, scipy, python = out.stdout.split()
    return {"numpy": numpy, "scipy": scipy, "python": python}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--cpu", type=int, default=os.cpu_count() - 1)
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = {side: {m: {n: [] for n in LANES} for m in MEASURES}
            for side in sides}
    for pair in range(PAIRS):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for measure in MEASURES:
            for lanes in LANES:
                for side in order:
                    runs[side][measure][lanes].append(_run_worker(
                        sides[side], lanes, measure, args.cpu))
        print(f"pair {pair + 1}/{PAIRS} done", file=sys.stderr)
    result = {
        "setup": {
            "what": "simulate._run_paths on one pinned CPU, unit logistic "
                    "model at eps = 1, dt 1e-4, seed 1",
            "steps": STEPS, "pairs": PAIRS, "lanes": list(LANES),
            "order": "alternating: pair i runs the parent first when i is "
                     "even",
            "split": "noise / step / settle attribute the timed us/step by "
                     "sampling the executing line of _run_paths every "
                     f"{SAMPLE_S * 1e3:g} ms in a second run",
        },
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(), **versions(sides["change"])},
        "results": {side: {m: {str(n): _summary(runs[side][m][n])
                               for n in LANES} for m in MEASURES}
                    for side in sides},
    }
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        lanes, measure, cpu = sys.argv[2:5]
        os.sched_setaffinity(0, {int(cpu)})
        print(json.dumps(worker(int(lanes), measure)))
    else:
        main()
