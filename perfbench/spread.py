"""Run-to-run spread of the end-to-end metrics.

Usage: ``python3 perfbench/spread.py --workload W --seeds 1-10
[--seconds S]``.  Runs the benchmark once per seed, one run at a time,
and prints for every end-to-end metric its median, its quartile spread
(interquartile distance as a share of the median) and the bound from
``BENCHMARK.json``.  A benchmark is steady when every spread except
``setup_s`` is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402


def seeds_of(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    values: dict = {}
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}"
            for name, metric in result["metrics"].items()), flush=True)
    for metric in bench["end_to_end"]:
        series = values[metric["name"]]
        print(f"{args.workload:12s} {metric['name']:18s} "
              f"median {statistics.median(series):12.5g} "
              f"spread {quartile_spread(series):7.4f} "
              f"bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
