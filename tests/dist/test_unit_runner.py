"""The per-process unit runner realizes each trial exactly once.

Every executor runs its units through one
:class:`repro.experiments.runner._UnitRunner`; these tests count what
it does per trial: trial inputs realized, per-trial fault factory
calls, and merged event streams built.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

import repro.experiments.artifacts as artifacts_mod
import repro.experiments.runner as runner_mod
import repro.sim.engine as engine_mod
from repro.dist import QueueWorker, SerialExecutor, WorkQueue
from repro.dist.executors import make_unit_records
from repro.experiments import run_comparison
from repro.faults import FaultSchedule

from .conftest import DURATION, N, make_spec, make_units, trace_factory

N_TRIALS = 3


def churn_factory(calls):
    """A per-trial fault factory that counts its calls per trial."""

    def faults(trial):
        calls[trial] = calls.get(trial, 0) + 1
        return FaultSchedule.node_churn(
            N,
            crash_rate=0.01,
            mean_downtime=10.0,
            duration=DURATION,
            seed=100 + trial,
        )

    return faults


@pytest.fixture
def counters(monkeypatch):
    """Count trial realizations and event-stream merges.

    Merges are counted at both call sites: the trial's shared stream
    (``TrialArtifacts.event_stream``) and the engine's inline merge.
    """
    counts = {"inputs": {}, "shared_merges": 0, "inline_merges": 0}
    real_inputs = runner_mod._build_trial_inputs

    def counting_inputs(*args, **kwargs):
        seeds = args[3]
        counts["inputs"][seeds] = counts["inputs"].get(seeds, 0) + 1
        return real_inputs(*args, **kwargs)

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(runner_mod, "_build_trial_inputs", counting_inputs)
    monkeypatch.setattr(
        artifacts_mod,
        "build_event_stream",
        counting("shared_merges", artifacts_mod.build_event_stream),
    )
    monkeypatch.setattr(
        engine_mod,
        "build_event_stream",
        counting("inline_merges", engine_mod.build_event_stream),
    )
    return counts


def assert_once_per_trial(counters, fault_calls):
    assert len(counters["inputs"]) == N_TRIALS
    assert set(counters["inputs"].values()) == {1}
    assert fault_calls == {trial: 1 for trial in range(N_TRIALS)}
    # One merge per trial, shared by every protocol of the trial.
    assert counters["shared_merges"] == N_TRIALS
    assert counters["inline_merges"] == 0


def test_serial_walk_realizes_each_trial_once(
    demand, config, protocols, counters
):
    fault_calls: dict = {}
    spec = make_spec(
        demand,
        config,
        protocols,
        faults=churn_factory(fault_calls),
        n_trials=N_TRIALS,
    )
    recorded = []
    SerialExecutor().execute(
        make_units(protocols, N_TRIALS),
        spec,
        lambda trial, name, result, error, timing: recorded.append(
            (trial, name, result is not None, timing["setup_wall_s"] > 0)
        ),
    )
    assert len(recorded) == N_TRIALS * len(protocols)
    assert all(ok for _, _, ok, _ in recorded)
    # Only the first unit of each trial pays for the realization.
    assert [paid for *_, paid in recorded] == [True, False] * N_TRIALS
    assert_once_per_trial(counters, fault_calls)


def test_queue_worker_realizes_each_trial_once(
    demand, config, protocols, counters, tmp_path
):
    fault_calls: dict = {}
    spec = make_spec(
        demand,
        config,
        protocols,
        faults=churn_factory(fault_calls),
        n_trials=N_TRIALS,
    )
    records = make_unit_records(
        make_units(protocols, N_TRIALS), list(protocols)
    )
    queue = WorkQueue.create(
        tmp_path / "q", records, identity=spec.identity()
    )
    worker = QueueWorker(queue, spec, "w0")
    worker.run()
    assert worker.units_done == N_TRIALS * len(protocols)
    assert worker.units_failed == 0
    assert_once_per_trial(counters, fault_calls)


def test_queue_worker_ignores_stream_switch_of_older_manifests(
    demand, config, protocols, counters, tmp_path
):
    """Manifests written before sharing was unconditional carry a
    ``share_event_streams`` handoff key; it still loads and is ignored."""
    spec = make_spec(demand, config, protocols, n_trials=N_TRIALS)
    records = make_unit_records(
        make_units(protocols, N_TRIALS), list(protocols)
    )
    queue = WorkQueue.create(
        tmp_path / "q",
        records,
        identity=spec.identity(),
        handoff={"share_event_streams": False},
    )
    worker = QueueWorker(WorkQueue.open(queue.root), spec, "w0")
    worker.run()
    assert worker.units_done == N_TRIALS * len(protocols)
    assert counters["shared_merges"] == N_TRIALS
    assert counters["inline_merges"] == 0


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process pool needs the fork start method",
)
def test_pool_workers_realize_each_trial_at_most_once(
    demand, config, protocols, monkeypatch
):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    n_workers = 2
    result = run_comparison(
        trace_factory=trace_factory,
        demand=demand,
        config=config,
        protocols=protocols,
        n_trials=N_TRIALS,
        base_seed=7,
        n_workers=n_workers,
        run_cache=False,
    )
    assert result.manifest["executor"] == "process"
    assert result.manifest["n_workers"] == n_workers
    paid = [t for t in result.telemetry if t.setup_wall_s > 0]
    # Each worker realizes a trial at most once; every trial at least
    # once somewhere.
    assert len(paid) <= N_TRIALS * n_workers
    assert {t.trial for t in paid} == set(range(N_TRIALS))
