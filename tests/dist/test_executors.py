"""The executor seam: resolution rules, identity, unit mapping."""

from __future__ import annotations

import pytest

from repro.dist import (
    ProcessPoolExecutor,
    SerialExecutor,
    WorkQueueExecutor,
    resolve_executor,
)
from repro.dist.executors import ENV_VAR, make_unit_records
from repro.errors import ConfigurationError

from .conftest import make_spec, make_units


class TestResolveExecutor:
    def test_none_defers_to_historical_behavior(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(None, n_workers=1), SerialExecutor)
        pool = resolve_executor(None, n_workers=3)
        assert isinstance(pool, ProcessPoolExecutor)
        assert pool.n_workers == 3

    def test_env_var_selects_a_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "serial")
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_names_resolve_case_insensitively(self):
        assert isinstance(resolve_executor("Serial"), SerialExecutor)
        pool = resolve_executor("process", n_workers=3)
        assert isinstance(pool, ProcessPoolExecutor)
        assert pool.n_workers == 3
        queue = resolve_executor("workqueue", n_workers=4)
        assert isinstance(queue, WorkQueueExecutor)
        assert queue.n_workers == 4

    def test_instances_pass_through(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            resolve_executor("threads")

    def test_non_string_setting_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            resolve_executor(42)  # type: ignore[arg-type]


class TestConstruction:
    def test_pool_rejects_invalid_worker_count(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            ProcessPoolExecutor(0)

    def test_workqueue_rejects_invalid_worker_count(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            WorkQueueExecutor(n_workers=0)


class TestSweepSpec:
    def test_identity_is_the_sweeps_fingerprint(self, demand, config, protocols):
        spec = make_spec(demand, config, protocols)
        identity = spec.identity()
        assert identity["base_seed"] == 7
        assert identity["n_trials"] == 2
        assert identity["protocols"] == ["OPT", "UNI"]
        assert identity["config_fingerprint"] == config.fingerprint()

    def test_identity_ignores_execution_policy(self, demand, config, protocols):
        a = make_spec(demand, config, protocols, on_error="skip")
        b = make_spec(demand, config, protocols, on_error="raise")
        assert a.identity() == b.identity()


def test_make_unit_records_maps_trial_major(protocols):
    records = make_unit_records(make_units(protocols), list(protocols))
    assert [r.unit for r in records] == [
        "t00000-p000", "t00000-p001", "t00001-p000", "t00001-p001",
    ]
    assert [r.protocol for r in records] == ["OPT", "UNI", "OPT", "UNI"]
    assert records[2].seeds == (101, 201, 301)
