"""Phase cost of ``ergharvest solve`` on one pinned worker.

Compares two source trees (each a directory holding the ``ergharvest``
package, such as a checkout's ``src``) and prints a BENCH json document:

    python tools/bench_solve.py PARENT_SRC CHANGE_SRC > BENCH.json

Every measurement runs in a fresh interpreter pinned to one CPU, with one
tree on ``sys.path``; each of ``PAIRS`` pairs of measurements runs both
trees, and the tree that goes first alternates from pair to pair.  A
worker runs perfbench's own ``solve`` op: ``workloads.SolveWorkload``'s
``setup`` writes the eight cases' configs, and each op is its ``prepare``
(untimed, as in perfbench) and its ``op``, one in-process ``ergharvest
solve``.  The worker runs every case once to warm up and then ``PASSES``
more times, with a wall-clock timer around each phase: the assumption
check, the tail-coefficient probes, ``build_potential``,
``verify_solution``, each CSV writer and the JSON writer.  ``other`` is
the rest of an op (parser, config, model build, bracket, stdout).  A
worker's figure for a phase and case is its median over the timed
passes.  The worker also counts each case's probes (``_tail`` calls), and
the summary gives the probe phase per probe, ``ms_per_probe``, beside the
phase times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from bench_step import stats, versions

PAIRS = 10
PASSES = 5
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
# phase -> (module, attribute) wrapped by the worker's timer
PHASES = {
    "check": ("shooting", "check_assumptions"),
    "probes": ("shooting", "_tail"),
    "potential": ("shooting", "build_potential"),
    "verify": ("cli", "verify_solution"),
    "write_solution_csv": ("artifacts", "write_solution_csv"),
    "write_fd_csv": ("artifacts", "write_fd_csv"),
    "write_json": ("artifacts", "write_json"),
}
FIGURES = (*PHASES, "other", "total")


def _timed(module, name, acc, calls, phase):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[phase] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[phase] += time.perf_counter() - t0

    setattr(module, name, wrapper)


def worker():
    """Per-case phase times (ms, median over the timed passes), probes."""
    sys.path.insert(0, PERFBENCH)
    import workloads
    from ergharvest import artifacts, cli, shooting
    modules = {"shooting": shooting, "cli": cli, "artifacts": artifacts}
    acc = dict.fromkeys(PHASES, 0.0)
    calls = dict.fromkeys(PHASES, 0)
    for phase, (module, name) in PHASES.items():
        _timed(modules[module], name, acc, calls, phase)
    with tempfile.TemporaryDirectory() as tmp:
        load = workloads.SolveWorkload("solve", workloads.solve_cases(), tmp)
        load.setup(0)
        times = {case.label: {f: [] for f in FIGURES} for case in load.cases}
        probes = {}
        for timed in [False] + [True] * PASSES:
            for case in load.cases:
                for phase in acc:
                    acc[phase] = 0.0
                    calls[phase] = 0
                load.prepare(case)
                t0 = time.perf_counter()
                rc, text = load.op(case)
                total = time.perf_counter() - t0
                if rc != 0:
                    raise SystemExit(f"{case.label}: solve exited {rc}\n"
                                     f"{text}")
                if timed:
                    row = times[case.label]
                    for phase, seconds in acc.items():
                        row[phase].append(1e3 * seconds)
                    row["total"].append(1e3 * total)
                    row["other"].append(1e3 * (total - sum(acc.values())))
                    probes[case.label] = calls["probes"]
    return {
        "cases_ms": {label: {f: statistics.median(v) for f, v in row.items()}
                     for label, row in times.items()},
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _run_worker(src, cpu):
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, __file__, "--worker", str(cpu)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _ms_per_probe(run, labels):
    """The probe phase per probe over ``labels``, in one run."""
    return (sum(run["cases_ms"][c]["probes"] for c in labels)
            / sum(run["probes"][c] for c in labels))


def _summary(runs):
    """Median and quartiles over the runs of one tree."""
    labels = list(runs[0]["cases_ms"])
    return {
        "probes_per_solve": runs[0]["probes"],
        "ms_per_probe": stats([_ms_per_probe(r, labels) for r in runs]),
        "ms_per_probe_by_case": {
            c: statistics.median(_ms_per_probe(r, [c]) for r in runs)
            for c in labels},
        "phases_ms": {
            f: stats([sum(r["cases_ms"][c][f] for c in labels)
                      for r in runs]) for f in FIGURES},
        "cases_ms": {
            c: {f: statistics.median(r["cases_ms"][c][f] for r in runs)
                for f in FIGURES} for c in labels},
        "total_ms_runs": [round(sum(r["cases_ms"][c]["total"]
                                    for c in labels), 2) for r in runs],
        "peak_rss_mb": stats([r["peak_rss_mb"] for r in runs]),
    }


def _wins(parent, change, figure, labels):
    """Pairs in which the change's summed ``figure`` is below the parent's."""
    def summed(r):
        if figure == "ms_per_probe":
            return _ms_per_probe(r, labels)
        return sum(r["cases_ms"][c][figure] for c in labels)
    return sum(summed(c) < summed(p) for p, c in zip(parent, change))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--cpu", type=int, default=os.cpu_count() - 1)
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = {side: [] for side in sides}
    for pair in range(PAIRS):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(_run_worker(sides[side], args.cpu))
        print(f"pair {pair + 1}/{PAIRS} done", file=sys.stderr)
    labels = list(runs["parent"][0]["cases_ms"])
    summary = {side: _summary(runs[side]) for side in sides}
    result = {
        "setup": {
            "what": "perfbench's SolveWorkload.op on the eight perfbench "
                    "solve cases, one pinned CPU, one warm-up pass then "
                    f"{PASSES} timed passes per worker",
            "pairs": PAIRS, "passes": PASSES, "cases": labels,
            "order": "alternating: pair i runs the parent first when i is "
                     "even",
            "phases": {p: ".".join(where) for p, where in PHASES.items()},
            "probes": "probes_per_solve counts _tail calls in one solve of "
                      "each case; ms_per_probe divides the probe phase, "
                      "summed over the cases, by the summed count",
            "figures": "cases_ms is a worker's median over its passes, "
                       "then the median over pairs; phases_ms sums a "
                       "worker's cases, then takes median and quartiles "
                       "over pairs",
        },
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(), **versions(sides["change"])},
        "results": summary,
        "change_vs_parent": {
            "phases_median_ratio": {
                f: summary["change"]["phases_ms"][f]["median"]
                / summary["parent"]["phases_ms"][f]["median"]
                for f in FIGURES},
            "ms_per_probe_median_ratio":
                summary["change"]["ms_per_probe"]["median"]
                / summary["parent"]["ms_per_probe"]["median"],
            "same_probes": all(r["probes"] == runs["parent"][0]["probes"]
                               for side in runs for r in runs[side]),
            "potential_speedup_per_case": {
                c: summary["parent"]["cases_ms"][c]["potential"]
                / summary["change"]["cases_ms"][c]["potential"]
                for c in labels},
            "pairs_won": {f: _wins(runs["parent"], runs["change"], f, labels)
                          for f in (*FIGURES, "ms_per_probe")},
        },
    }
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        os.sched_setaffinity(0, {int(sys.argv[2])})
        print(json.dumps(worker()))
    else:
        main()
