"""Repeat the benchmark over seeds and summarise it, e.g. as a BENCH file.

    python3 perfbench/collect.py --out perfbench/BENCH_1.json
    python3 perfbench/collect.py --first-seed 11

Runs ``run.py`` untraced RUNS times per workload, with consecutive seeds
from ``--first-seed`` and ``run_seconds`` from ``BENCHMARK.json``, then
once traced, from the root of a checkout.  For every end-to-end
metric it records the values, their median and quartiles, and the spread:
the distance between the quartiles as a share of the median, which is what
each metric's bound in ``BENCHMARK.json`` is compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def _run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": RUNS, "seconds": seconds, "first_seed": args.first_seed,
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [_run(workload, args.first_seed + i, seconds, 0)
                   for i in range(RUNS)]
        traced = _run(workload, args.first_seed, seconds, 1)
        end_to_end = {
            name: _summary([r["metrics"][name]["value"] for r in results])
            for name in bounds
        }
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, summary in end_to_end.items():
            flag = "" if summary["spread"] <= bounds[name] / 3 \
                else "  <-- above a third of its bound"
            print(f"{workload:13s} {name:13s} median {summary['median']:.6g} "
                  f"spread {summary['spread']:.3f} bound {bounds[name]}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
