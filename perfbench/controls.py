"""Negative controls: show that the benchmark's gates reject wrong outputs.

Run from the repository root:

    python3 perfbench/controls.py [--seed N]

Each control pairs an unmodified op, which the gate must accept, with a
corrupted one, which it must reject as incorrect:

* threshold: the unit logistic eps = 0 solve, then the same summary.json
  with beta shifted by 1e-4 (the closed-form gate allows 1e-6);
* measure: the eps = 1 worst-case Monte Carlo op, then the same op
  simulated under the reference drift, whose mean (about 0.16) misses the
  worst-case yield (about 0.091).

Exits 0 when every control behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run

SHIFT = 1e-4


def gate(wl, case, result):
    v = wl.check(case, result)
    return v.incorrect, v.reason or "accepted"


def threshold_controls(seed):
    import workloads
    wl = workloads.make("solve", str(run.OUT / "work" / "controls"), 1)
    wl.setup(seed)
    case = next(c for c in wl.cases if c.label == "vp-eps0")
    wl.prepare(case)
    result = wl.op(case)
    yield "threshold unmodified", False, gate(wl, case, result)

    path = os.path.join(wl.workdir, case.label, "summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary["solution"]["beta_eps"] += SHIFT
    with open(path, "w") as fh:
        json.dump(summary, fh)
    fresh = workloads.make("solve", wl.workdir, 1)
    yield f"threshold shifted by {SHIFT:g}", True, gate(fresh, case, result)


def measure_controls(seed):
    import workloads
    for label, measure, expect in (("worst case, worst-case drift",
                                    "worstcase", False),
                                   ("worst case, reference drift",
                                    "reference", True)):
        wl = workloads.MCWorkload("mc-worstcase", 1.0, measure,
                                  len(os.sched_getaffinity(0)))
        wl.setup(seed)
        case = wl.cycle(seed)[0]
        yield label, expect, gate(wl, case, wl.op(case))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not run.import_program():
        print(f"no ergharvest sources under {run.ROOT / 'src'}",
              file=sys.stderr)
        return 2
    ok = True
    for controls in (threshold_controls(args.seed),
                     measure_controls(args.seed)):
        for label, expect_reject, (rejected, reason) in controls:
            good = rejected == expect_reject
            ok &= good
            verdict = "rejected" if rejected else "accepted"
            print(f"CONTROL {label}: {verdict} "
                  f"({'as expected' if good else 'UNEXPECTED'}) - {reason}")
    print("controls " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
