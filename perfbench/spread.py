#!/usr/bin/env python3
"""Runs one workload repeatedly, one seed per run, and prints each metric's
median, quartiles and interquartile spread as a share of the median: the
figures behind each bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload csv_explore --runs 10
    python3 perfbench/spread.py --workload rawd_serve --runs 5 --trace 1

Seeds are first-seed .. first-seed + runs - 1; the run length defaults to
BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED_E2E = "perfbench: traced end-to-end: "


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, failed_shares, traced_e2e = {}, [], {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for line in out.stderr.splitlines():
            if line.startswith(TRACED_E2E):
                for name, m in json.loads(line[len(TRACED_E2E):]).items():
                    traced_e2e.setdefault(name, []).append(m["value"])
        if not result["correct"]:
            print(f"seed {seed}: incorrect answers", file=sys.stderr)
        failed_shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, "
          f"failed share {sorted(set(failed_shares))}")
    table(values, bounds)
    if traced_e2e:
        print("end-to-end metrics of the traced runs (tracing overhead: "
              "compare with untraced runs of the same seeds)")
        table(traced_e2e, bounds)


def table(values, bounds):
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
