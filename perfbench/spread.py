#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and steal calibration.

    python3 perfbench/spread.py [--runs 10] [--seed-base 100] [--out F]
                                [workload ...]
    python3 perfbench/spread.py --calibrate F [F ...]

Runs the benchmark once per seed on each workload (all of them by default)
with BENCHMARK.json's run_seconds, then prints, per workload and end-to-end
metric, the median of the runs and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median. A spread is flagged when it is not below a third of the
metric's bound. Run from the repository root. --out writes every run's
metrics and per-phase samples (host seconds, steal seconds) as JSON.

--calibrate pools the samples of such files per workload and phase and
prints the steal shares for steal_shares() in src/workloads.cpp (see
README, "Steal").
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A phase line on stdout: "<phase>: median ... [seconds/steal ...]".
PHASE = re.compile(r"^([a-z-]+): median .*\[(.*)\]$")


def samples(stdout):
    """Every phase's (host seconds, steal seconds) samples of one run."""
    out = {}
    for line in stdout.splitlines():
        m = PHASE.match(line)
        if m:
            out[m.group(1)] = [[float(x) for x in s.split("/")]
                               for s in m.group(2).split()]
    return out


def steal_share(points, tick=0.01):
    """Theil-Sen slope of host seconds on steal seconds, clamped to [0, 1].

    Only pairs whose steal differs by more than 1.5 clock ticks and by more
    than 5% of the median solve count: smaller differences are buried in
    the solves' own noise. 0 when fewer than 10 pairs count.
    """
    step = max(1, len(points) // 300)  # keeps the pairs O(300^2)
    points = points[::step]
    min_ds = max(1.5 * tick, 0.05 * statistics.median(p[0] for p in points))
    slopes = [(b[0] - a[0]) / (b[1] - a[1])
              for i, a in enumerate(points) for b in points[i + 1:]
              if abs(b[1] - a[1]) > min_ds]
    if len(slopes) < 10:
        return 0.0
    return min(1.0, max(0.0, statistics.median(slopes)))


# Fitted share -> the phases whose solves it pools (pairs across phases
# would mix different solve times). "parallel" and "serial" go into
# steal_shares(); "setup" is a check that the set-up, mostly one parallel
# solve, has about the parallel share. A run's first set-up is cold (first
# page faults, thread start-up) and is left out.
SHARES = {"parallel": ["timed", "untraced"], "serial": ["serial-baseline"],
          "setup": ["setup"]}


def calibrate(files):
    pooled = {}
    for f in files:
        for name, runs in json.load(open(f)).items():
            for run in runs:
                for share, phases in SHARES.items():
                    for phase in phases:
                        pts = run.get("samples", {}).get(phase, [])
                        if phase == "setup":
                            pts = pts[1:]
                        pooled.setdefault(name, {}).setdefault(
                            share, []).extend(pts)
    for name, by_share in pooled.items():
        fit = {k: steal_share(v) if v else 0.0 for k, v in by_share.items()}
        counts = {k: len(v) for k, v in by_share.items()}
        print(f"{name}: " + ", ".join(
            f"{k} {fit[k]:.3f} ({counts[k]} solves)" for k in SHARES))
    return 0


def main():
    if sys.argv[1:2] == ["--calibrate"]:
        return calibrate(sys.argv[2:])
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--out")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {}
    steady = True
    for name in names:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(args.seed_base + i),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stdout + out.stderr)
                print(f"{name}: run {i} exited {out.returncode}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            result["samples"] = samples(out.stdout)
            runs.setdefault(name, []).append(result)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"{name}")
        for m, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= bounds[m] / 3:
                flag = "  <-- not below bound/3"
                steady = False
            print(f"  {m:16s} median {med:14.6g}  spread {spread:8.4f}"
                  f"  bound {bounds[m]:.2f}{flag}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
