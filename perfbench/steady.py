#!/usr/bin/env python3
"""Steadiness self-check: two alternating sets of benchmark runs on one build.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]

Run from the repository root. For each workload it makes `--runs` pairs
of untraced runs, seed i for pair i in both sets, alternating which set
goes first. It then prints, per end-to-end metric, each set's median and
quartiles over its runs, their spread ((q3 - q1) / median), and the
difference of the second median from the first, against the metric's
bound in BENCHMARK.json. Per-CPU medians of `solve_seq_s` show whether
single-thread figures depend on the vCPU that ran them. It exits 0
only if every spread and every difference is within the metric's bound
and every run is correct with no failed operation.

The benchmark command, run length and bounds are read from
BENCHMARK.json, so the check measures what a gate would measure.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    detail = json.loads(next(l for l in out if l.startswith("detail "))[7:])
    return result, detail


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = ([], [])
        started = time.time()
        for i in range(args.runs):
            seed = i + 1
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                result, detail = run_once(spec["command"], workload, seed, args.seconds)
                sets[s].append((result, detail))
                values = " ".join(f"{n} {result['metrics'][n]['value']:.6g}" for n in bounds)
                print(f"  {workload} set {'AB'[s]} seed {seed} at {time.strftime('%H:%M:%S')}: "
                      f"{values}", file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs per set, {args.seconds} s each, "
              f"{time.time() - started:.0f} s wall")
        print(f"  {'metric':<18}{'set':>4}{'q1':>13}{'median':>13}{'q3':>13}"
              f"{'spread':>9}{'diff':>9}{'bound':>7}")
        for name, bound in bounds.items():
            meds = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r, _ in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                meds.append(med)
                diff = "" if s == 0 else f"{(med - meds[0]) / meds[0]:+9.2%}"
                steady = spread <= bound / 3
                ok &= spread <= bound
                print(f"  {name:<18}{'AB'[s]:>4}{q1:>13.6g}{med:>13.6g}{q3:>13.6g}"
                      f"{spread:>9.2%}{diff:>9}{bound:>7}{'' if steady else '  !'}")
            ok &= abs(meds[1] - meds[0]) / meds[0] <= bound
        for s, runs in enumerate(sets):
            by_cpu = {}
            for _, d in runs:
                for cpu, v in d["solve_seq_s_by_cpu"].items():
                    by_cpu.setdefault(cpu, []).append(v)
            cells = ", ".join(f"cpu{c} {statistics.median(v):.6g} s" for c, v in sorted(by_cpu.items()))
            print(f"  solve_seq_s median by CPU, set {'AB'[s]}: {cells}")
        failed = [sum(r["failed"] for r, _ in runs) for runs in sets]
        wrong = [sum(not r["correct"] for r, _ in runs) for runs in sets]
        print(f"  failed operations: set A {failed[0]}, set B {failed[1]}; "
              f"runs not correct: set A {wrong[0]}, set B {wrong[1]}")
        ok &= failed == [0, 0] and wrong == [0, 0]

    print("\nsteady within bounds" if ok else "\nNOT steady within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
