"""Tiny-profile smoke tests for the simulation-backed figures.

The full regenerations live in ``benchmarks/``; these shrunken runs
guard the figure plumbing (series shapes, panel structure, rendering)
inside the fast test suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.contacts.synthetic import VehicularTraceConfig, vehicular_trace
from repro.experiments import EffortProfile, figure3, figure4, figure6
from repro.experiments import figures, scenarios

TINY = EffortProfile(
    label="tiny",
    n_trials=1,
    duration=300.0,
    power_alphas=(0.0,),
    step_taus=(10.0,),
    exp_nus=(0.1,),
)


@pytest.fixture(scope="module")
def fig3():
    return figure3(TINY)


class TestFigure3Smoke:
    def test_panels_shaped(self, fig3):
        assert set(fig3.expected_utility.series) == {
            "OPT",
            "UNI",
            "DOM",
            "QCRWOM",
            "QCR",
        }
        n_points = len(fig3.expected_utility.times)
        for series in fig3.expected_utility.series.values():
            assert len(series) == n_points

    def test_replica_panels_track_five_items(self, fig3):
        assert len(fig3.replicas_with_routing.series) == 5
        assert len(fig3.replicas_without_routing.series) == 5

    def test_static_references_flat(self, fig3):
        uni = fig3.expected_utility.series["UNI"]
        assert np.allclose(uni, uni[0])

    def test_render(self, fig3):
        text = fig3.render()
        assert "Figure 3(a)" in text
        assert "Figure 3(d)" in text


class TestFigure4Smoke:
    def test_structure(self):
        result = figure4(TINY)
        assert result.power_panel.x_values == (0.0,)
        assert result.step_panel.x_values == (10.0,)
        for panel in (result.power_panel, result.step_panel):
            assert set(panel.losses) == {
                "OPT",
                "QCR",
                "SQRT",
                "PROP",
                "UNI",
                "DOM",
            }
            assert panel.losses["OPT"][0] == pytest.approx(0.0)
        assert "Figure 4" in result.render()


class TestFigure6Smoke:
    def test_structure(self):
        result = figure6(TINY)
        for panel in (
            result.power_panel,
            result.step_panel,
            result.exponential_panel,
        ):
            assert len(panel.x_values) == 1
            assert all(len(v) == 1 for v in panel.losses.values())
        assert "vehicular" in result.render()

    def test_one_probe_trace_per_figure(self, monkeypatch):
        """The seed-0 probe behind mu_estimate is built once per figure,
        not once per sweep point, and a rerun builds it again: no state
        carries over between figure calls."""
        trace_seeds = []
        mu_estimates = []

        def counting_trace(config, seed=None):
            trace_seeds.append(seed)
            return vehicular_trace(config, seed=seed)

        class NoRun:
            def normalized_loss(self, name):
                return 0.0

        def recording_run(scenario, **kwargs):
            mu_estimates.append(scenario.mu_estimate)
            return NoRun()

        monkeypatch.setattr(scenarios, "vehicular_trace", counting_trace)
        monkeypatch.setattr(figures, "run_scenario", recording_run)
        figure6(TINY)
        assert trace_seeds == [0]
        figure6(TINY)
        assert trace_seeds == [0, 0]
        probe = vehicular_trace(VehicularTraceConfig(), seed=0)
        assert mu_estimates == [max(probe.mean_pair_rate, 1e-6)] * 6
