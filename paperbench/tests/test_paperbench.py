"""Tests of the benchmark itself, on a one-point profile.

    PYTHONPATH=src python -m pytest paperbench/tests -q
"""

import json

import pytest

import run
import spans
import workloads
from spans import Span, SpanRecorder, instrument, layer_metrics, self_times
from worker import MARKER, Regenerations


def _span(name, start, end, parent, phase="timed", **counts):
    return Span(name, start, end, parent, "w", 1, phase, counts)


def _site_attributes():
    snapshot = []
    for module, path, *_ in spans._SITES + spans._SUITE_SITES:
        owner, attr = spans._resolve(module, path)
        snapshot.append((owner, attr, owner.__dict__[attr]))
    return snapshot


def _traced(workload, profile, seed, cache_dir=None):
    recorder = SpanRecorder(workload.name, seed)
    recorder.phase = "timed"
    with instrument(recorder):
        with recorder.span("figures"):
            result = workload.regenerate(profile, seed, cache_dir)
    return result, layer_metrics(recorder.spans)


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span("figures", 0.0, 10.0, None),
        _span("runner", 1.0, 7.0, 0),
        _span("engine.run", 2.0, 5.0, 1, timeout=False, events=6,
              expired=0),
        _span("contacts", 8.0, 9.5, 0),
    ]
    assert self_times(trace) == [2.5, 3.0, 3.0, 1.5]
    metrics = layer_metrics(trace)
    assert metrics["figures.self_s"] == 2.5
    assert metrics["runner.self_s"] == 3.0
    assert metrics["contacts.synth_s"] == 1.5


def test_layer_metrics_split_phases_and_ratios():
    trace = [
        _span("engine.run", 0.0, 4.0, None, phase="setup",
              timeout=True, events=10, expired=1),
        _span("simcache.put", 4.0, 4.5, None, phase="setup"),
        _span("events.merge", 5.0, 5.5, None),
        _span("engine.run", 6.0, 8.0, None, timeout=True, events=30,
              expired=2),
        _span("engine.run", 8.0, 9.0, None, timeout=False, events=20,
              expired=0),
        _span("simcache.get", 9.0, 9.25, None, hit=True),
        _span("simcache.get", 9.25, 9.5, None, hit=False),
    ]
    metrics = layer_metrics(trace)
    assert metrics["engine.runs"] == 2
    assert metrics["engine.run_s.timeout"] == 2.0
    assert metrics["engine.run_s.no_timeout"] == 1.0
    assert metrics["engine.events"] == 50
    assert metrics["engine.events_per_s"] == pytest.approx(50 / 3.0)
    assert metrics["engine.expired"] == 2
    assert metrics["events.reuse"] == 2.0
    assert metrics["simcache.hit_ratio"] == 0.5
    assert metrics["setup.engine.run_s"] == 4.0
    assert metrics["setup.simcache.put_s"] == 0.5
    assert set(metrics) | {"bench.trace_overhead_s"} == {
        name for name, _ in spans.LAYER_METRICS
    }


def test_wrappers_are_restored_even_on_error():
    before = _site_attributes()
    with pytest.raises(RuntimeError):
        with instrument(SpanRecorder("w", 1)):
            assert _site_attributes() != before
            raise RuntimeError("boom")
    after = _site_attributes()
    assert all(a[2] is b[2] for a, b in zip(before, after))


def test_traced_run_restores_wrappers_and_keeps_digest(tiny_profile):
    workload = workloads.WORKLOADS["fig4-homogeneous"]
    before = _site_attributes()
    untraced = workload.regenerate(tiny_profile, 11, None)
    traced, metrics = _traced(workload, tiny_profile, 11)
    assert workloads.digest(traced) == workloads.digest(untraced)
    assert all(a[2] is b[2] for a, b in zip(before, _site_attributes()))
    assert metrics["engine.runs"] == 12
    assert metrics["runner.units"] == 12


def test_cached_rerun_matches_cold_output_without_engine(
    tiny_profile, tmp_path
):
    workload = workloads.WORKLOADS["fig5-rerun-cached"]
    cold = workload.regenerate(tiny_profile, 5, str(tmp_path))
    rerun, metrics = _traced(workload, tiny_profile, 5, str(tmp_path))
    assert workloads.digest(rerun) == workloads.digest(cold)
    assert metrics["engine.runs"] == 0
    assert metrics["simcache.hit_ratio"] == 1.0
    assert metrics["allocation.greedy_calls"] > 0


def test_perturbed_digest_counts_as_failed(
    tiny_profile, monkeypatch, capsys
):
    name, seed = "fig4-homogeneous", 11
    regens = Regenerations(name, seed, tiny_profile, None)
    _, good = regens.run("timed")
    monkeypatch.setitem(workloads.EXPECTED_DIGESTS, name, {seed: good})
    regens.run("timed")
    monkeypatch.setitem(
        workloads.EXPECTED_DIGESTS, name, {seed: "0" * len(good)}
    )
    regens.run("timed")
    messages = [
        json.loads(line[len(MARKER):])
        for line in capsys.readouterr().out.splitlines()
        if line.startswith(MARKER)
    ]
    assert [m["error"] is None for m in messages] == [True, True, False]
    result = run.summarize(messages, {})
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 3, 1
    )


def test_layer_counts_repeat_exactly(tiny_profile):
    workload = workloads.WORKLOADS["fig6-vehicular"]
    counts = [
        name for name, unit in spans.LAYER_METRICS if unit == "count"
    ]
    first = _traced(workload, tiny_profile, 3)[1]
    second = _traced(workload, tiny_profile, 3)[1]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["contacts.calls"] > 0
    assert first["allocation.evaluations"] > 0


def test_benchmark_json_matches_the_code():
    root = run.ROOT
    with open(f"{root}/BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS
    )
