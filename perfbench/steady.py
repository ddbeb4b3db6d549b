#!/usr/bin/env python3
"""Steadiness tool: runs the benchmark repeatedly and reports each metric's
spread, the way its bounds are set and re-checked.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]
                                [--seconds S] [--trace 0|1]

Each pass runs every selected workload once, in an order that alternates
between passes, with a fresh seed per run. For every metric it prints the
median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and, for end-to-end metrics, the bound from
BENCHMARK.json with a verdict (spread below a third of the bound is
"steady"). It also prints the failed share of attempted operations per
workload. Each run's full output is kept in .bench_build/steady/. Run
from the root of the checkout.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    log_dir = ROOT / ".bench_build" / "steady"
    values = {w: {} for w in workloads}
    shares = {w: [] for w in workloads}
    seed = args.seed0
    for n in range(args.runs):
        order = workloads if n % 2 == 0 else workloads[::-1]
        for w in order:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            seed += 1
            started = time.monotonic()
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - started
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
                sys.exit(f"steady: {w} seed {seed - 1} exited {r.returncode}")
            log_dir.mkdir(parents=True, exist_ok=True)
            (log_dir / f"{w}-{seed - 1}-trace{args.trace}.log").write_text(
                r.stdout)
            res = json.loads(r.stdout.strip().split("\n")[-1])
            shares[w].append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            steal = re.search(r"steal share during the timed phase: (\S+)",
                              r.stdout)
            print(f"run {n + 1}/{args.runs} {w} seed {seed - 1} "
                  f"({wall:.0f} s, steal {steal.group(1) if steal else '?'}): " +
                  " ".join(f"{k}={v['value']:.4g}"
                           for k, v in res["metrics"].items()), flush=True)

    worst = 0.0
    for w in workloads:
        print(f"\n{w}: failed share per run {sorted(set(shares[w]))}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
                worst = max(worst, spread / bound)
            print(f"  {name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6} "
                  f"{verdict}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
