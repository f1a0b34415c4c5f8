"""The timing shim and the run-provenance manifest."""

import pytest

from repro.obs import RunManifest, Stopwatch, environment_provenance
from repro.obs import manifest as manifest_module


def test_stopwatch_measures_nonnegative_durations():
    with Stopwatch() as sw:
        sum(range(1000))
    assert sw.wall >= 0.0
    assert sw.cpu >= 0.0
    # Stopped values are frozen.
    assert sw.wall == sw.wall


def test_stopwatch_running_totals_before_stop():
    sw = Stopwatch()
    first = sw.wall
    sum(range(100000))
    assert sw.wall >= first


def test_stopwatch_stop_before_start_raises():
    sw = Stopwatch(autostart=False)
    assert sw.wall == 0.0
    assert sw.cpu == 0.0
    with pytest.raises(RuntimeError):
        sw.stop()


def test_stopwatch_sections_accumulate_and_bound_total():
    sw = Stopwatch()
    with sw.section("load"):
        sum(range(50000))
    with sw.section("run"):
        sum(range(50000))
    # Re-entering a named section accumulates rather than resets.
    with sw.section("run"):
        sum(range(50000))
    sw.stop()
    assert set(sw.sections) == {"load", "run"}
    assert all(value >= 0.0 for value in sw.sections.values())
    assert set(sw.cpu_sections) == {"load", "run"}
    # Sections cover disjoint spans of one run: their sum can never
    # exceed the stopwatch's total wall time.
    assert sum(sw.sections.values()) <= sw.wall + 1e-9


def test_stopwatch_sections_survive_nesting():
    sw = Stopwatch()
    with sw.section("outer"):
        with sw.section("inner"):
            sum(range(20000))
    sw.stop()
    assert sw.sections["outer"] >= sw.sections["inner"] - 1e-9
    assert sw.sections["inner"] >= 0.0
    assert sw.sections["outer"] <= sw.wall + 1e-9


def test_stopwatch_section_reraises_and_still_records():
    sw = Stopwatch()
    with pytest.raises(RuntimeError):
        with sw.section("broken"):
            raise RuntimeError("boom")
    assert sw.sections["broken"] >= 0.0


def test_environment_provenance_shape_and_caching():
    env = environment_provenance()
    assert set(env) == {"python", "platform", "git_revision", "packages"}
    assert "numpy" in env["packages"]
    # Cached per process, but each caller gets an independent copy.
    again = environment_provenance()
    assert again == env
    again["python"] = "tampered"
    assert environment_provenance()["python"] != "tampered"


def test_git_revision_none_on_failure(monkeypatch):
    def broken_run(*args, **kwargs):
        raise OSError("no git")

    monkeypatch.setattr(manifest_module.subprocess, "run", broken_run)
    assert manifest_module._git_revision() is None


def test_run_manifest_round_trip():
    manifest = RunManifest(
        config_fingerprint="ab12",
        seed=7,
        protocol="QCR",
        wall_s=1.5,
        cpu_s=1.4,
        n_events=100,
        phases={"run": 1.2, "settle": 0.1},
        metrics={"n_fulfilled": 90},
        extra={"trial": 3},
    )
    data = manifest.to_dict()
    assert data["config_fingerprint"] == "ab12"
    assert data["extra"] == {"trial": 3}
    assert data["phases"] == {"run": 1.2, "settle": 0.1}
    assert data["metrics"] == {"n_fulfilled": 90}
    assert RunManifest.from_dict(data) == manifest


def test_run_manifest_records_loop_and_loads_older_manifests():
    manifest = RunManifest(config_fingerprint="ef56", loop="masked")
    data = manifest.to_dict()
    assert data["loop"] == "masked"
    assert RunManifest.from_dict(data) == manifest
    # Manifests written before the loop was recorded lack the field.
    del data["loop"]
    assert RunManifest.from_dict(data).loop is None


def test_run_manifest_from_dict_ignores_unknown_keys():
    manifest = RunManifest.from_dict(
        {"config_fingerprint": "cd34", "future_field": True}
    )
    assert manifest.config_fingerprint == "cd34"
