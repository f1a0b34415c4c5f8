"""The benchmark's workloads: quick-profile regenerations of Figures 4-6.

Each workload is one ``figureN`` call from :mod:`repro.experiments.figures`
with every input passed explicitly (profile, seed, run cache, serial
execution), so nothing in the caller's environment can change the work.
The workload seed is forwarded as the figure's ``base_seed``.

``fig5-rerun-cached`` regenerates Figure 5 once during set-up into a
fresh run cache, then times regenerating it again from that cache.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["Workload", "WORKLOADS", "EXPECTED_DIGESTS", "digest", "check"]


@dataclass(frozen=True)
class Workload:
    name: str
    figure: str
    #: Whether set-up fills a run cache that the timed call then reads.
    cached: bool

    def regenerate(self, profile: Any, seed: int,
                   cache_dir: Optional[str]) -> Any:
        from repro.experiments import figures

        return getattr(figures, self.figure)(
            profile,
            base_seed=seed,
            n_workers=None,
            run_cache=cache_dir if self.cached else False,
        )


#: Why each workload exists: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig4-homogeneous", "figure4", cached=False),
        Workload("fig6-vehicular", "figure6", cached=False),
        Workload("fig5-rerun-cached", "figure5", cached=True),
    )
}

#: sha256 of ``render()`` at each workload's default seed (the figure's
#: own ``base_seed`` default).
EXPECTED_DIGESTS: Dict[str, Dict[int, str]] = {
    "fig4-homogeneous": {
        404: "eafe6bf9b82e0c7b88475ee25e7947bd"
             "4a6ad1f224903a522e891ed7558f5c0b",
    },
    "fig6-vehicular": {
        606: "c48ba7dede00371abd829c3221966fee"
             "1bdf617bbf390eb2c3b1378849710561",
    },
    "fig5-rerun-cached": {
        505: "271a5db649e534ce3de5be3c0998b351"
             "20ba908cc6309c7f0269753466e926d8",
    },
}


def digest(result: Any) -> str:
    return hashlib.sha256(result.render().encode("utf-8")).hexdigest()


def check(workload: str, seed: int, result: Any) -> Optional[str]:
    """``None`` when *result* passes the output check, else the reason.

    On any seed every sweep panel must carry a finite loss for every
    algorithm at every x value, with OPT (the baseline) at exactly 0.
    At a seed with a recorded digest the rendered output must match it.
    """
    from repro.experiments.figures import SweepPanel

    panels = [
        value for value in vars(result).values()
        if isinstance(value, SweepPanel)
    ]
    if not panels:
        return "no sweep panels"
    for panel in panels:
        for name, losses in panel.losses.items():
            if len(losses) != len(panel.x_values):
                return f"{panel.title}: {name} has {len(losses)} points"
            if not all(math.isfinite(loss) for loss in losses):
                return f"{panel.title}: {name} has a non-finite loss"
        if any(loss != 0.0 for loss in panel.losses["OPT"]):
            return f"{panel.title}: OPT loss is not 0"
    expected = EXPECTED_DIGESTS.get(workload, {}).get(seed)
    if expected is not None:
        actual = digest(result)
        if actual != expected:
            return f"digest {actual[:12]} != expected {expected[:12]}"
    return None
