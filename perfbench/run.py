#!/usr/bin/env python3
"""Build and run the arnet benchmark (perfbench/bench.ml).

One workload per process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark from source with dune, runs it, passes its output
through and exits with its status; the last line of standard output is
the run's JSON record.  Two more modes, run from the repository root:

    python3 perfbench/run.py --all [--seed N] [--seconds S]
        every workload, untraced then traced, each in its own process,
        printed as one table

    python3 perfbench/run.py --selftest
        every workload at tiny sizes, traced and untraced: each must
        pass its checks and print every metric BENCHMARK.json names,
        with its unit
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["nsfnet-replay", "mesh-storm"]
# a run must end within 180 s; leave room for start-up and the build check
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return os.path.join(prefix, "bin", "dune")
    die("dune not found on PATH (is the OCaml toolchain set up?)")


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        die(f"{ROOT} holds no dune-project: run from a checkout of the repository")
    cmd = [find_dune(), "build", "--root", ROOT, "./perfbench/bench.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=850)
    except subprocess.TimeoutExpired:
        die("the build timed out")
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        die("the build failed")


def pin_to_one_cpu():
    # Client and daemon share one CPU: a loopback round trip then costs
    # two context switches, not a cross-CPU wake-up whose price depends on
    # where the scheduler happened to place the two threads.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload, seed, seconds, trace, tiny=False, timeout=RUN_TIMEOUT_S):
    """Run one workload in a fresh process; return (status, stdout, stderr)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=max(1, timeout), preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return 124, out, f"perfbench: {workload} timed out after {timeout} s\n"
    return p.returncode, p.stdout, p.stderr


def record(stdout):
    """The JSON record on the last line of a run's output, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return r


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]})


def problems(r, expected):
    """Why a run record falls short of the metric set it must carry."""
    if r is None:
        return ["no JSON record on the last line"]
    out = []
    if r["correct"] is not True or r["failed"] != 0:
        out.append(f"correct={r['correct']} failed={r['failed']}")
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        out.append(f"attempted={r['attempted']}")
    got = r["metrics"]
    for name, unit in expected.items():
        if name not in got:
            out.append(f"missing metric {name}")
        elif got[name].get("unit") != unit:
            out.append(f"{name}: unit {got[name].get('unit')!r}, expected {unit!r}")
        elif not isinstance(got[name].get("value"), (int, float)):
            out.append(f"{name}: value is not a number")
    for name in got:
        if name not in expected:
            out.append(f"undeclared metric {name}")
    return out


def single(args):
    started = time.time()
    build()
    budget = RUN_TIMEOUT_S - int(time.time() - started)
    status, out, err = run(args.workload, args.seed, args.seconds, args.trace,
                           timeout=budget)
    sys.stderr.write(err)
    if status != 0 or record(out) is None:
        # pass the diagnostics on, but never a result line
        sys.stderr.write(out)
        sys.exit(status or 1)
    sys.stdout.write(out)


def all_workloads(args):
    build()
    rows, ok = [], True
    for w in WORKLOADS:
        for trace in (0, 1):
            status, out, err = run(w, args.seed, args.seconds, trace)
            r = record(out)
            if status != 0 or r is None:
                ok = False
                sys.stderr.write(err)
                print(f"{w} trace={trace}: failed (status {status})")
                continue
            print(f"{w} trace={trace}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}")
            ok = ok and r["correct"]
            for name, m in r["metrics"].items():
                rows.append((w, name, m["value"], m["unit"]))
    for w, name, v, unit in rows:
        print(f"{w:14} {name:32} {v:16.6g} {unit}")
    sys.exit(0 if ok else 1)


def selftest(_args):
    build()
    end_to_end, per_layer = declared()
    failures = 0
    for w in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            status, out, err = run(w, 1, 3, trace, tiny=True)
            found = problems(record(out), expected)
            if status != 0:
                found.insert(0, f"exit status {status}")
            verdict = "ok" if not found else "FAIL: " + "; ".join(found)
            print(f"selftest {w} trace={trace}: {verdict}")
            if found:
                failures += 1
                sys.stderr.write(err)
    sys.exit(1 if failures else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--selftest", action="store_true", help="tiny-size self-test")
    args = ap.parse_args()
    if args.selftest:
        selftest(args)
    elif args.all:
        all_workloads(args)
    elif args.workload:
        single(args)
    else:
        ap.error("give --workload NAME, --all or --selftest")


if __name__ == "__main__":
    main()
