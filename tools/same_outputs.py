"""Byte-identity check of the CLI's outputs between two source trees.

Compares two source trees (each a directory holding the ``ergharvest``
package, such as a checkout's ``src``):

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each tree runs in a fresh interpreter with that tree on ``PYTHONPATH``.
The worker writes the configs of perfbench's ``workloads.solve_cases()``
and ``tabulated_cases()`` with ``SolveWorkload.setup`` (perfbench is
imported read-only, as ``tools/bench_solve.py`` does), and runs ``solve``
and then ``verify`` on each, and one short ``simulate --no-inline-solve
--measure reference --jobs 1`` on the solved ``SIM_CASE``.  After each
command it records the exit code, stdout and stderr (the output path
masked) and the SHA-256 of every file in the case's directory.  Both trees
run in the same output path, so the artifacts that echo it compare as
they are.  One JSON verdict per command and case goes to stdout; the exit
status is 1 when any of them differs.  ``--list`` prints the commands
without running them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
SIM_CASE = "vp-eps1"
SIM = {"dt": 1e-3, "horizon": 2.0, "n_paths": 8, "burn_in": 0.1}
SIM_ARGS = ["--no-inline-solve", "--measure", "reference", "--jobs", "1"]
MASK = "<out>"


def _workload(root):
    sys.path.insert(0, PERFBENCH)
    import workloads
    return workloads.SolveWorkload(
        "solve", workloads.solve_cases() + workloads.tabulated_cases(), root)


def commands(load):
    """(case directory, command label, argv) of every command, in order."""
    root = load.workdir
    runs = []
    for case in load.cases:
        out = os.path.join(root, case.label)
        for name in ("solve", "verify"):
            runs.append((out, f"{case.label}/{name}",
                         [name, "--config", os.path.join(out, "config.json"),
                          "--output-dir", out]))
    if SIM_CASE not in [case.label for case in load.cases]:
        raise SystemExit(f"no case {SIM_CASE!r} among the solve cases")
    out = os.path.join(root, SIM_CASE)
    runs.append((out, f"{SIM_CASE}/simulate",
                 ["simulate", "--config", os.path.join(out, "simulate.json"),
                  "--output-dir", out, *SIM_ARGS]))
    return runs


def worker(root):
    """Exit code, masked stdout and stderr, and file digests per command."""
    from ergharvest import cli
    load = _workload(root)
    load.setup(0)
    with open(os.path.join(root, SIM_CASE, "config.json")) as fh:
        sim_cfg = dict(json.load(fh), sim=SIM)
    with open(os.path.join(root, SIM_CASE, "simulate.json"), "w") as fh:
        json.dump(sim_cfg, fh)
    record = {}
    for out, label, argv in commands(load):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
        record[label] = {"exit": rc,
                         "stdout": stdout.getvalue().replace(root, MASK),
                         "stderr": stderr.getvalue().replace(root, MASK),
                         "files": files}
    return record


def _run_worker(src, root):
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, __file__, "--worker", root],
                         env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"worker on {src} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def _differences(parent, change):
    """Names of the fields (and files) in which two records differ."""
    diff = [key for key in ("exit", "stdout", "stderr")
            if parent[key] != change[key]]
    names = sorted(set(parent["files"]) | set(change["files"]))
    diff += [f"file {name}" for name in names
             if parent["files"].get(name) != change["files"].get(name)]
    return diff


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--list", action="store_true",
                    help="print the commands without running them")
    args = ap.parse_args(argv)
    if args.list:
        for _, label, argv_ in commands(_workload(MASK)):
            print(label, " ".join(argv_))
        return 0
    if args.parent is None or args.change is None:
        ap.error("need PARENT_SRC and CHANGE_SRC")
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "out")
        for side in ("parent", "change"):
            os.makedirs(root)
            records[side] = _run_worker(
                os.path.abspath(getattr(args, side)), root)
            shutil.rmtree(root)
    same = True
    for label, parent in records["parent"].items():
        change = records["change"].get(label)
        diff = (["missing"] if change is None
                else _differences(parent, change))
        same = same and not diff
        print(json.dumps({"case": label, "identical": not diff,
                          "exit": parent["exit"],
                          "files": len(parent["files"]),
                          "differences": diff}))
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        print(json.dumps(worker(sys.argv[2])))
    else:
        sys.exit(main())
