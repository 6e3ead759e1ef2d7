"""ergharvest benchmark: solve latency and Monte Carlo throughput.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50

Each workload is a closed loop with one client and no think time, driven
from this one process (the Monte Carlo ops fan out to nproc worker
processes through ``estimate_payoff(jobs=nproc)``).  Every op is gated, see
``workloads.py``.  Ops run in whole cycles over the workload's cases, so
per-op counts do not depend on where the time limit falls.

Single-process ops rotate over the CPUs of the affinity set, one CPU per
op; the parallel Monte Carlo ops use all of them.  On the 2-vCPU virtual
machine this was written on, the speed of a vCPU swung by up to 2x over
seconds to minutes (in two consecutive 30-second windows the same solve
took 157 to 337 ms on one vCPU and 305 to 329 ms on the other).  A fixed
split of the ops over every CPU averages the swings one vCPU has alone; a
pinned or freely migrating process takes them whole.  Within a run the op
times fall into a slow mode, the host's usual speed, and a fast one whose
share changes from minute to minute.  The bounded timing is therefore the
90th percentile of the op times, which sits in the slow mode; the median
and the throughput, which move with the share of the fast mode, are
printed but not bounded.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced cycles and reports the
per-layer metrics from the traced ones plus the tracing overhead, the
ratio of the two.  The last stdout line is one JSON object; the full record
(environment, seed, op times, failures, spans) goes to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CPUS = sorted(os.sched_getaffinity(0))
MIN_OPS = 2              # untraced ops a run needs for its percentiles

# Metric names and units are those BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Runnable by name but not declared in BENCHMARK.json, so not part of "all":
# the two declared workloads cover every layer, and 22 runs of each fit in
# about an hour at 50 seconds; more workloads would mean shorter runs, too
# noisy for their bounds on a shared host (see README.md).
EXTRA_WORKLOADS = ["solve-tabulated", "mc-reference"]

WORK_UNIT = {"solve": "solves", "solve-tabulated": "solves",
             "mc-reference": "path-steps", "mc-worstcase": "path-steps"}


def import_program():
    """Import ergharvest from this checkout's src/; False when missing."""
    src = ROOT / "src"
    if not (src / "ergharvest" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import ergharvest.cli  # noqa: F401  (the CLI pulls in every layer)
    return True


IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t0 = time.perf_counter(); import ergharvest.cli; "
               "print(time.perf_counter() - t0)")


class SetupTimer:
    """Set-up time: a fresh interpreter's import plus the workload's set-up.

    The run calls ``measure`` before, halfway through and after its ops, so
    that the median spans the run and not one moment of a host whose speed
    drifts.  The import runs in a child interpreter that ``close`` waits
    for: a child's peak RSS enters RUSAGE_CHILDREN only when it is waited
    for, and ``peak_rss_mb`` is read before that.
    """

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.children = []
        self.times = []

    def measure(self):
        """One import and one set-up; returns the wall seconds it took."""
        t0 = time.perf_counter()
        os.sched_setaffinity(0, CPUS)
        child = subprocess.Popen(
            [sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
            stdout=subprocess.PIPE, text=True)
        self.children.append(child)
        import_s = float(child.stdout.read())
        t1 = time.perf_counter()
        self.wl.setup(self.seed)
        self.times.append(import_s + time.perf_counter() - t1)
        return time.perf_counter() - t0

    def close(self):
        for child in self.children:
            child.stdout.close()
            child.wait()


def read_first_line(path):
    try:
        with open(path) as fh:
            return fh.readline().strip()
    except OSError:
        return "unknown"


def commit_id():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    ref = read_first_line(head)
    if ref.startswith("ref: "):
        name = ref[5:]
        loose = read_first_line(ROOT / ".git" / name)
        if loose != "unknown":
            return loose
        try:
            with open(ROOT / ".git" / "packed-refs") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + name):
                        return line.split()[0]
        except OSError:
            pass
        return "unknown"
    return ref


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(jobs):
    import numpy
    import scipy
    return {
        "nproc": jobs,
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_id(),
        "loadavg_start": read_first_line("/proc/loadavg"),
    }


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest finished worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Run:
    """Op log of one workload run."""

    def __init__(self, wl):
        self.wl = wl
        self.times = []          # seconds per op, in order
        self.traced = []         # bool per op
        self.work = 0.0
        self.extra_ops = 0       # traced-run ops outside the timed cycles
        self.failed = 0
        self.incorrect = 0
        self.reasons = []

    def op(self, case, tracer=None, cpu=None):
        from workloads import Verdict
        wl = self.wl
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        wl.prepare(case)
        if tracer is not None:
            tracer.op_id = len(self.times)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.op(case)
            else:
                with tracer.span(wl.root_span):
                    result = wl.op(case)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            elapsed = time.perf_counter() - t0
            verdict = Verdict()
            verdict.reject(f"{type(exc).__name__}: {exc}", incorrect=False)
        else:
            if tracer is not None:
                wl.record_counts(tracer, case, result)
            verdict = wl.check(case, result)
        if tracer is not None:
            tracer.op_id = None
        self.times.append(elapsed)
        self.traced.append(tracer is not None)
        self.work += wl.work(case)
        self.note(verdict)

    def note(self, verdict):
        self.failed += verdict.failed
        self.incorrect += verdict.incorrect
        if verdict.failed and len(self.reasons) < 20:
            self.reasons.append(verdict.reason)

    def times_where(self, traced):
        return [t for t, tr in zip(self.times, self.traced) if tr == traced]


def run_workload(name, seed, seconds, trace):
    import workloads

    wl = workloads.make(name, str(OUT / "work" / name), len(CPUS))
    setup = SetupTimer(wl, seed)
    try:
        return measure_workload(wl, setup, seed, seconds, trace)
    finally:
        setup.close()


def measure_workload(wl, setup, seed, seconds, trace):
    from tracing import Tracer

    setup.measure()
    cycle = wl.cycle(seed)
    run = Run(wl)
    tracer = Tracer() if trace else None
    patches = wl.trace_patches(tracer) if trace else []

    def cpu(i):
        """CPU of the i-th op of a cycle; None lets the workers share all."""
        return None if wl.jobs > 1 else CPUS[(i + cycles) % len(CPUS)]

    start = time.perf_counter()
    cycles = 0
    halfway = False
    while True:
        if trace:
            # Traced cycle first, so a cold start inflates the overhead
            # rather than hiding it.
            with tracer.install(patches):
                for i, case in enumerate(cycle):
                    run.op(case, tracer, cpu(i))
        for i, case in enumerate(cycle):
            run.op(case, cpu=cpu(i))
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(run.times_where(False)) >= MIN_OPS:
            break
        if not halfway and elapsed >= seconds / 2:
            halfway = True
            start += setup.measure()     # the run's clock skips set-up
    measured_s = time.perf_counter() - start
    setup.measure()

    untraced = run.times_where(False)
    plain = {
        "setup_s": statistics.median(setup.times),
        "op_ms_p90": 1000.0 * statistics.quantiles(
            untraced, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": run.work / sum(untraced),
        "op_ms_p50": 1000.0 * statistics.median(untraced),
    }
    if not trace:
        metrics, units = plain, END_TO_END
    else:
        traced_ops = [i for i, tr in enumerate(run.traced) if tr]
        extra, verdicts = wl.extra_traced(tracer, untraced)
        for verdict in verdicts:
            run.note(verdict)
        run.extra_ops += len(verdicts)
        metrics = layer_metrics(tracer, traced_ops, extra)
        metrics["trace.overhead_frac"] = (sum(run.times_where(True))
                                          / sum(untraced) - 1.0)
        units = PER_LAYER
        tracer.dump(str(OUT / "results"
                        / f"{wl.name}-seed{seed}.spans.json"))

    result = {
        "correct": run.incorrect == 0,
        "attempted": len(run.times) + run.extra_ops,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    detail = {
        "workload": wl.name, "seed": seed, "trace": trace, "cycles": cycles,
        "cycle": [c.label for c in cycle], "measured_s": measured_s,
        "setup_repeats_s": setup.times, "untraced": plain,
        "op_times_s": run.times, "op_traced": run.traced,
        "failures": run.reasons, "result": result,
    }
    return result, detail


def layer_metrics(tracer, ops, extra):
    total, own = tracer.layer_times(ops)
    n = tracer.op_counts(ops)
    classify = n.get("shooting.classify_calls", 0.0)

    def share(key):
        return n.get(key, 0.0) / classify if classify else 0.0

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({k: v for k, v in n.items() if k in PER_LAYER})
    metrics.update({
        "shooting.classify_ms": total.get("shooting.classify", 0.0),
        "shooting.potential_ms": total.get("shooting.potential", 0.0),
        "shooting.dip_frac": share("shooting.dips"),
        "shooting.guard_frac": share("shooting.guard_stops"),
        "ivp.self_ms": own.get("ivp.integrate", 0.0),
        "model.build_ms": total.get("model.build", 0.0),
        "model.check_ms": total.get("model.check", 0.0),
        "hjb.verify_ms": total.get("hjb.verify", 0.0),
        "cli.self_ms": own.get("cli.main", 0.0),
        "config.load_ms": total.get("config.load", 0.0),
        "artifacts.write_ms": total.get("artifacts.write", 0.0),
    })
    metrics.update(extra)
    return metrics


def report(name, seed, trace, result, detail):
    m = result["metrics"]
    print(f"workload {name}  seed {seed}  trace {trace}: "
          f"{result['attempted']} ops in {detail['cycles']} cycles, "
          f"{detail['measured_s']:.1f} s; failed {result['failed']}  "
          f"correct {result['correct']}")
    for key, entry in m.items():
        print(f"  {key:<36} {entry['value']:>14.6g} {entry['unit']}")
    # Printed for reading, not bounded: see the module docstring.
    plain = detail["untraced"]
    n = len(detail["op_times_s"]) - sum(detail["op_traced"])
    print(f"  {'work_per_s':<36} {plain['work_per_s']:>14.6g} 1/s"
          f"  ({WORK_UNIT[name]} per second)")
    print(f"  {'op_ms_p50':<36} {plain['op_ms_p50']:>14.6g} ms"
          f"  (over {n} untraced ops)")
    if "op_ms_p90" not in m:
        print(f"  {'op_ms_p90':<36} {plain['op_ms_p90']:>14.6g} ms")
    print(f"  {'failed_frac':<36} "
          f"{result['failed'] / result['attempted']:>14.6g} frac")
    for reason in detail["failures"][:3]:
        print(f"  failure: {reason}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA_WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not import_program():
        print(f"no ergharvest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(len(CPUS))

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, detail = run_workload(name, args.seed, args.seconds,
                                      args.trace)
        report(name, args.seed, args.trace, result, detail)
        env["loadavg_end"] = read_first_line("/proc/loadavg")
        detail["environment"] = env
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(detail, indent=1) + "\n")
        results[name] = result
    print("environment " + json.dumps(env, sort_keys=True))

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
