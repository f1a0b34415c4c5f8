import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(autouse=True)
def hermetic_env(monkeypatch):
    """The workloads pass every input explicitly; clear the rest anyway."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)


@pytest.fixture
def tiny_profile():
    """One trial, one point per sweep: the workloads' code paths, fast."""
    from repro.experiments.profiles import EffortProfile

    return EffortProfile(
        label="tiny",
        n_trials=1,
        duration=300.0,
        power_alphas=(0.0,),
        step_taus=(10.0,),
        exp_nus=(0.1,),
    )
