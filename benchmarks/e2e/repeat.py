"""Run netbench K times per workload and print each metric's spread.

    python3 benchmarks/e2e/repeat.py [--runs 10] [--first-seed 1]
        [--workloads small_calls,ref_churn] [--trace] [--json out.json]

Every run is a fresh ``run.py`` process with its own seed (seeds
``first-seed`` .. ``first-seed + runs - 1``), so a set shows both
run-to-run and seed-to-seed variation.  For each end-to-end metric it
prints the median, the quartiles, and the distance between the
quartiles as a share of the median next to the metric's bound in
``BENCHMARK.json`` — the figure those bounds were calibrated from: a
bound must stay above three times the spread seen here.  Run it with a
second ``--first-seed`` to check the medians on seeds not used before.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]


def one_run(workload: str, seed: int, trace: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "1" if trace else "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          cwd=REPO_ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if done.returncode != 0 or result is None or not result["correct"]:
        raise RuntimeError(
            f"{workload} seed {seed}: exit code {done.returncode}\n"
            + done.stdout[-3000:] + "\n" + done.stderr[-3000:])
    return result


def summarise(values) -> dict:
    first, middle, third = statistics.quantiles(values, n=4)
    return {
        "median": middle, "q1": first, "q3": third,
        "spread": (third - first) / middle if middle else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", default="")
    args = parser.parse_args()

    with open(REPO_ROOT / "BENCHMARK.json") as source:
        contract = json.load(source)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    names = ([w for w in args.workloads.split(",") if w]
             or [w["name"] for w in contract["workloads"]])
    if args.runs < 2:
        parser.error("quartiles need at least two runs")

    summary = {}
    worst = 0.0
    broken = 0
    for workload in names:
        samples = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            try:
                result = one_run(workload, seed, args.trace)
            except RuntimeError as failure:
                broken += 1
                print(f"FAILED RUN: {failure}")
                continue
            for metric, cell in result["metrics"].items():
                samples.setdefault(metric, []).append(cell["value"])
            print(f"  {workload} seed {seed} done", file=sys.stderr)
        summary[workload] = {m: summarise(v) for m, v in samples.items()}
        good = len(next(iter(samples.values()), []))
        print(f"{workload}  ({good} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        print(f"  {'metric':32}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for metric, cell in summary[workload].items():
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                worst = max(worst, cell["spread"] / bound)
                if cell["spread"] > bound / 3:
                    flag = "  > bound/3"
            print(f"  {metric:32}{cell['median']:14.5g}{cell['q1']:14.5g}"
                  f"{cell['q3']:14.5g}{cell['spread']:9.1%}"
                  + (f"{bound:8.0%}" if bound is not None else " " * 8)
                  + flag)
    if not args.trace:
        print(f"largest spread as a share of its bound: {worst:.2f} "
              "(the benchmark is steady below 0.33)")
    if args.json:
        with open(args.json, "w") as out:
            json.dump(summary, out, indent=1)
    if broken:
        print(f"{broken} run(s) failed")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
