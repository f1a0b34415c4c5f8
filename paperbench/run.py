"""Paper-workload benchmark: time to regenerate Figures 4-6.

    python3 paperbench/run.py --workload fig4-homogeneous --seed 404 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  Each regeneration happens in a fresh
worker process (``worker.py``) whose environment drops every ``REPRO_*``
variable and pins BLAS/OpenMP to one thread, so a caller's settings can
turn neither a cold workload into a cache hit nor a serial sweep into a
process pool.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median
regeneration time), ``setup_s`` (median time from process start to
ready, sampled at least once and until five samples or ``--seconds`` of
set-up have been measured) and ``peak_rss_mb``.  ``--trace 1`` runs one
traced worker and reports the per-layer metrics.  The last line of
standard output is the JSON result; the exit code is 0 only when every
worker finished.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from spans import LAYER_METRICS
from workloads import WORKLOADS
from worker import MARKER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")

#: Wall-clock budget of one benchmark run, workers included.
RUN_BUDGET_S = 170.0
MIN_SETUP_SAMPLES = 5


class WorkerError(RuntimeError):
    pass


def worker_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: argparse.Namespace, mode: str,
               deadline: float) -> Dict[str, Any]:
    """Run one worker to completion and collect its messages.

    ``setup_s`` is measured here, from just before the process is spawned
    to the moment its ``ready`` line arrives, so it covers interpreter
    start and imports.  The worker is killed if the run's deadline passes.
    """
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out", OUT,
    ]
    report: Dict[str, Any] = {"regens": []}
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
        text=True, bufsize=1,
    )
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if not line.startswith(MARKER):
                sys.stderr.write(line)
                continue
            message = json.loads(line[len(MARKER):])
            kind = message.pop("kind")
            if kind == "ready":
                report["setup_s"] = time.perf_counter() - start
            elif kind == "regen":
                report["regens"].append(message)
            else:
                report.update(message)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or "peak_rss_mb" not in report:
        raise WorkerError(
            f"{mode} worker for {args.workload} exited with "
            f"{proc.returncode}"
        )
    return report


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    deadline = time.perf_counter() + RUN_BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        report = run_worker(args, "traced", deadline)
        metrics = {
            name: {"value": report["metrics"][name], "unit": unit}
            for name, unit in LAYER_METRICS
        }
    else:
        report = run_worker(args, "timed", deadline)
        setups = [report["setup_s"]]
        while len(setups) < MIN_SETUP_SAMPLES and sum(setups) < args.seconds:
            setups.append(run_worker(args, "setup", deadline)["setup_s"])
        walls = [
            r["wall_s"] for r in report["regens"] if r["phase"] == "timed"
        ]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    return summarize(report["regens"], metrics)


def summarize(regens: List[Dict[str, Any]],
              metrics: Dict[str, Any]) -> Dict[str, Any]:
    """The result line: a regeneration that raised or failed its output
    check counts as failed, and any failure makes the run incorrect."""
    failed = [r for r in regens if r["error"] is not None]
    for regen in failed:
        print(f"paperbench: {regen['phase']} regeneration failed: "
              f"{regen['error']}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(regens),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"paperbench: no package source under {ROOT}/src",
              file=sys.stderr)
        return 2
    # The "build": byte-compile once so no worker pays for it in set-up.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    try:
        result = measure(args)
    except WorkerError as error:
        print(f"paperbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
