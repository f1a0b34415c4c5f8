"""One workload in one fresh process; driven by ``run.py``.

    python3 paperbench/worker.py --workload NAME --seed N --seconds S \\
        --mode {setup,timed,traced} --out DIR

The worker sets up (imports the package and, for the cached workload,
regenerates the figure once into a fresh run cache under *DIR*), prints
a ``ready`` message, and then:

* ``setup``  exits;
* ``timed``  regenerates the figure until *S* seconds of regeneration
  have been measured (at least once);
* ``traced`` regenerates it once with every layer wrapped (see
  ``spans.py``) and then once untraced, and reports the per-layer
  metrics.

Messages go to standard output as single JSON lines behind ``MARKER``;
anything else the package prints is passed through by the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from typing import Any, Dict, Optional, Tuple

from spans import SpanRecorder, instrument, layer_metrics
from workloads import WORKLOADS, check, digest

MARKER = "@paperbench "
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def emit(kind: str, **fields: Any) -> None:
    print(MARKER + json.dumps({"kind": kind, **fields}), flush=True)


def _import_package() -> Any:
    """Import the package from this checkout's ``src`` and nowhere else."""
    import repro
    from repro.experiments.profiles import EffortProfile

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    return EffortProfile.quick()


class Regenerations:
    """Runs regenerations, checks each, and reports it to the parent."""

    def __init__(self, workload: str, seed: int, profile: Any,
                 cache_dir: Optional[str]) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.profile = profile
        self.cache_dir = cache_dir
        #: Digest every later regeneration must reproduce: the cold output
        #: of the cached workload's set-up, or the traced output.
        self.reference: Optional[str] = None

    def run(self, phase: str,
            recorder: Optional[SpanRecorder] = None
            ) -> Tuple[float, Optional[str]]:
        """One checked regeneration; returns ``(wall seconds, digest)``,
        the digest ``None`` when the call raised."""
        error: Optional[str] = None
        value: Optional[str] = None
        start = time.perf_counter()
        try:
            if recorder is None:
                result = self._regenerate()
            else:
                with recorder.span("figures"):
                    result = self._regenerate()
            wall = time.perf_counter() - start
            value = digest(result)
            error = check(self.workload.name, self.seed, result)
        except Exception as exc:  # reported as a failed regeneration
            wall = time.perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
        if error is None and self.reference is not None \
                and value != self.reference:
            error = (f"digest {value[:12]} differs from "
                     f"{self.reference[:12]}")
        emit("regen", phase=phase, wall_s=wall, digest=value, error=error)
        return wall, value

    def _regenerate(self) -> Any:
        return self.workload.regenerate(self.profile, self.seed,
                                        self.cache_dir)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    profile = _import_package()
    recorder = (
        SpanRecorder(args.workload, args.seed)
        if args.mode == "traced" else None
    )
    cache_dir = None
    if WORKLOADS[args.workload].cached:
        cache_dir = os.path.join(args.out, f"cache-{os.getpid()}")
        shutil.rmtree(cache_dir, ignore_errors=True)
    regens = Regenerations(args.workload, args.seed, profile, cache_dir)
    try:
        if cache_dir is not None:
            if recorder is None:
                _, regens.reference = regens.run("setup")
            else:
                with instrument(recorder):
                    _, regens.reference = regens.run("setup", recorder)
        emit("ready")
        if args.mode == "timed":
            measured = 0.0
            while measured < args.seconds:
                measured += regens.run("timed")[0]
        elif args.mode == "traced":
            # Traced first, so that like the first call of a timed worker
            # it includes the process's one-off warm-up.
            recorder.phase = "timed"
            with instrument(recorder):
                traced_s, traced_digest = regens.run("traced", recorder)
            if regens.reference is None:
                regens.reference = traced_digest
            untraced_s, _ = regens.run("timed")
            metrics: Dict[str, float] = layer_metrics(recorder.spans)
            metrics["bench.trace_overhead_s"] = traced_s - untraced_s
            recorder.write(os.path.join(
                args.out, f"spans-{args.workload}-{args.seed}.jsonl"
            ))
            emit("layers", metrics=metrics)
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit("done", peak_rss_mb=peak_kb / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
