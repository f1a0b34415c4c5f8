"""Random-waypoint mobility on a rectangular area.

The substrate for the Cabspotting substitution (DESIGN.md §2): each node
repeatedly picks a uniform destination, travels to it in a straight line
at a uniform-random speed, optionally pauses, and repeats.  Positions are
piecewise-linear in time, so sampling at arbitrary instants is exact
interpolation between waypoint knots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..types import FloatArray, SeedLike, as_rng

__all__ = ["RandomWaypointModel"]


@dataclass(frozen=True)
class RandomWaypointModel:
    """Random-waypoint mobility parameters.

    Distances and speeds share one length unit and one time unit (the
    vehicular generator uses meters and seconds).
    """

    width: float
    height: float
    speed_min: float
    speed_max: float
    pause_min: float = 0.0
    pause_max: float = 0.0
    #: When set, each node gets a uniform-random *home point* and draws its
    #: waypoints from a normal of this std-dev around it (clipped to the
    #: area).  Nodes then keep territories, which makes pair meeting rates
    #: persistently heterogeneous — as observed for taxicab fleets.
    home_std: Optional[float] = None

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("area dimensions must be > 0")
        if self.home_std is not None and self.home_std <= 0:
            raise ConfigurationError("home_std must be > 0 when set")
        if not 0 < self.speed_min <= self.speed_max:
            raise ConfigurationError(
                "need 0 < speed_min <= speed_max "
                f"(got {self.speed_min}, {self.speed_max})"
            )
        if not 0 <= self.pause_min <= self.pause_max:
            raise ConfigurationError(
                "need 0 <= pause_min <= pause_max "
                f"(got {self.pause_min}, {self.pause_max})"
            )

    def sample_positions(
        self,
        n_nodes: int,
        times: FloatArray,
        seed: SeedLike = None,
    ) -> FloatArray:
        """Return node positions at *times*, shape ``(n_times, n_nodes, 2)``.

        *times* must be non-decreasing and start at ``>= 0``.
        """
        if n_nodes <= 0:
            raise ConfigurationError(f"n_nodes must be > 0, got {n_nodes}")
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ConfigurationError("times must be a non-empty 1-D array")
        if times[0] < 0 or np.any(np.diff(times) < 0):
            raise ConfigurationError("times must be sorted and >= 0")
        rng = as_rng(seed)
        horizon = float(times[-1])

        positions = np.empty((len(times), n_nodes, 2), dtype=float)
        for node in range(n_nodes):
            home = None
            if self.home_std is not None:
                home = rng.uniform((0.0, 0.0), (self.width, self.height))
            knot_t, knot_xy = self._node_knots(horizon, rng, home)
            positions[:, node, 0] = np.interp(times, knot_t, knot_xy[:, 0])
            positions[:, node, 1] = np.interp(times, knot_t, knot_xy[:, 1])
        return positions

    def _draw_waypoint(
        self, rng: np.random.Generator, home: Optional[np.ndarray]
    ) -> Tuple[float, float]:
        """A uniform waypoint, or a clipped normal around *home*.

        Scalar draws consume the generator exactly as one 2-vector draw
        would (x, then y) and give the same values, without building
        arrays for a single point.
        """
        if home is None:
            return rng.uniform(0.0, self.width), rng.uniform(0.0, self.height)
        x = rng.normal(home[0], self.home_std)
        y = rng.normal(home[1], self.home_std)
        return min(max(x, 0.0), self.width), min(max(y, 0.0), self.height)

    def _node_knots(
        self,
        horizon: float,
        rng: np.random.Generator,
        home: Optional[np.ndarray] = None,
    ) -> tuple:
        """Simulate one node's waypoint legs; return knot times/positions."""
        knot_t: List[float] = [0.0]
        here = self._draw_waypoint(rng, home)
        knot_xy: List[Tuple[float, float]] = [here]
        now = 0.0
        while now <= horizon:
            target = self._draw_waypoint(rng, home)
            speed = rng.uniform(self.speed_min, self.speed_max)
            travel = float(np.hypot(target[0] - here[0], target[1] - here[1]))
            now += travel / speed
            knot_t.append(now)
            knot_xy.append(target)
            here = target
            if self.pause_max > 0:
                pause = rng.uniform(self.pause_min, self.pause_max)
                if pause > 0:
                    now += pause
                    knot_t.append(now)
                    knot_xy.append(target)
        return np.asarray(knot_t), np.asarray(knot_xy)
