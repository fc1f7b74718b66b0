"""Reference figures: runs bench/run.py once per seed on each workload, one
run at a time, and prints each end-to-end metric's median, quartiles and
quartile spread (as a share of the median) over the runs, plus the
failed/attempted shares and, for comparison, the unscaled median unit
time and the speed scale that run.py reports on standard error.

    python3 bench/reference.py --seeds 0-9 --label set1

Every workload runs for BENCHMARK.json's run_seconds.  The quartiles are statistics.quantiles(values, n=4), the spread is
(Q3 - Q1) / median.  Per-run results go to bench/out/reference-*.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("semi_sgld", "unsup_large", "oracle_audit")


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


RAW = re.compile(r"wall ([0-9.e+-]+) s, speed scale ([0-9.e+-]+)")


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    raw = RAW.search(out.stderr)
    result["unscaled"] = {"wall_s (unscaled)": float(raw.group(1)),
                          "speed scale": float(raw.group(2))}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S"))
    args = ap.parse_args()
    seconds = run_seconds()
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    log = os.path.join(BENCH_DIR, "out", f"reference-{args.label}.jsonl")
    print("| workload | metric | median | Q1 | Q3 | spread | runs |")
    print("|---|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        values, shares = {}, set()
        for seed in args.seeds:
            result = run_once(workload, seed, seconds)
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            shares.add(f"{result['failed']}/{result['attempted']} correct={result['correct']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in result["unscaled"].items():
                values.setdefault(name, []).append(value)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"| {workload} | {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | "
                  f"{(q3 - q1) / med:.3f} | {len(vals)} |", flush=True)
        print(f"| {workload} | failed/attempted | {'; '.join(sorted(shares))} | | | | "
              f"{len(args.seeds)} |", flush=True)


if __name__ == "__main__":
    main()
