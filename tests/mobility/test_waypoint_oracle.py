"""Scalar waypoint draws against the original 2-vector draws.

:class:`repro.mobility.RandomWaypointModel` draws each waypoint as two
scalars.  The subclass below keeps the original array draws; both must
consume the generator in the same order (x, y, speed, pause) and give
bitwise-identical positions.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest

from repro.mobility import RandomWaypointModel


class ArrayDrawWaypointModel(RandomWaypointModel):
    """The random-waypoint model with its original array draws."""

    def _draw_waypoint(
        self, rng: np.random.Generator, home: Optional[np.ndarray]
    ) -> np.ndarray:
        if home is None:
            return rng.uniform((0.0, 0.0), (self.width, self.height))
        point = rng.normal(home, self.home_std)
        return np.clip(point, (0.0, 0.0), (self.width, self.height))

    def _node_knots(
        self,
        horizon: float,
        rng: np.random.Generator,
        home: Optional[np.ndarray] = None,
    ) -> tuple:
        knot_t: List[float] = [0.0]
        start = self._draw_waypoint(rng, home)
        knot_xy: List[np.ndarray] = [start]
        now = 0.0
        here = start
        while now <= horizon:
            target = self._draw_waypoint(rng, home)
            speed = rng.uniform(self.speed_min, self.speed_max)
            travel = float(np.hypot(*(target - here))) / speed
            now += travel
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


@pytest.mark.parametrize("home_std", [None, 1500.0, 10.0])
@pytest.mark.parametrize("pause", [(0.0, 0.0), (0.0, 300.0), (20.0, 60.0)])
@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_scalar_draws_match_array_draws(home_std, pause, seed):
    params = dict(
        width=6000.0,
        height=4000.0,
        speed_min=5.0,
        speed_max=15.0,
        pause_min=pause[0],
        pause_max=pause[1],
        home_std=home_std,
    )
    times = np.arange(0.0, 3600.0, 15.0)
    got = RandomWaypointModel(**params).sample_positions(6, times, seed=seed)
    want = ArrayDrawWaypointModel(**params).sample_positions(6, times, seed=seed)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_generator_left_in_same_state():
    """Both draw orders consume exactly the same random numbers."""
    params = dict(width=500.0, height=500.0, speed_min=1.0, speed_max=3.0)
    times = np.linspace(0.0, 2000.0, 50)
    states = []
    for model_cls in (RandomWaypointModel, ArrayDrawWaypointModel):
        rng = np.random.default_rng(7)
        model_cls(**params, home_std=50.0).sample_positions(3, times, seed=rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]
