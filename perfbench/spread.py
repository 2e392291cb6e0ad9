"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload sched-e5 --seeds 1-10

runs ``run.py --trace 0`` once per seed (``run_seconds`` from
BENCHMARK.json unless ``--seconds`` is given) and prints, per metric,
the median, the quartile distance as a share of the median, and that
spread against a third of the metric's bound.  Exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"{name:14s} median {median:12.6g}  spread {spread:6.3f}  "
              f"bound/3 {bounds[name] / 3:.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
