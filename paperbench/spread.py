"""Run one workload over several seeds and report each metric's spread.

    python3 paperbench/spread.py --workload fig4-homogeneous --seeds 1-10
    python3 paperbench/spread.py --workload fig4-homogeneous --seeds 404 \\
        --trace 1 --baseline paperbench/baseline.json

For every metric it prints the median over the runs and the distance
between the first and third quartiles as a share of the median (the
steadiness the end-to-end bounds in ``BENCHMARK.json`` are judged by).
``--baseline`` merges the medians into that JSON file, keyed by workload
and trace mode, together with the host they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def host() -> Dict[str, object]:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                line.split(":", 1)[1].strip()
                for line in handle if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {"cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: output check failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        ), flush=True)

    summary = {}
    for name, series in values.items():
        median = statistics.median(series)
        spread = None
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
        summary[name] = {"median": median, "unit": units[name],
                         "iqr_share": spread}
        shown = "-" if spread is None else f"{spread:.4f}"
        print(f"{name:28s} median={median:.6g} {units[name]:6s} "
              f"iqr/median={shown}")

    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except FileNotFoundError:
            baseline = {}
        baseline.setdefault("host", host())
        entry = baseline.setdefault("workloads", {}).setdefault(
            args.workload, {}
        )
        entry[f"trace{args.trace}"] = {
            "seeds": seeds, "seconds": args.seconds, "metrics": summary,
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
