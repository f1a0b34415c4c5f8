"""Loop coverage: every engine loop is selected for the case it serves.

``Simulation.run()`` records the loop it dispatched to in the run
manifest; asserting on that field per case means no loop can silently
go unreached by the suite again.
"""

from __future__ import annotations

import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.faults import FaultSchedule
from repro.obs import Tracer
from repro.protocols import QCR, uni_protocol
from repro.sim import SimulationConfig, simulate
from repro.sim.engine import _MASK_MIN_NODES
from repro.utility import StepUtility

N_ITEMS, RHO = 5, 2
UTILITY = StepUtility(8.0)


def loop_of(n_nodes, builder, *, faults=None, tracer=None, contact_rate=0.1):
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0)
    trace = homogeneous_poisson_trace(n_nodes, contact_rate, 100.0, seed=3)
    requests = generate_requests(demand, n_nodes, 100.0, seed=4)
    config = SimulationConfig(
        n_items=N_ITEMS, rho=RHO, utility=UTILITY, request_timeout=20.0
    )
    result = simulate(
        trace,
        requests,
        config,
        builder(demand, n_nodes),
        seed=5,
        faults=faults,
        tracer=tracer,
        manifest=True,
    )
    assert result.manifest is not None
    return result.manifest["loop"]


def qcr(demand, n_nodes):
    return QCR(UTILITY, 0.1)


def uni(demand, n_nodes):
    return uni_protocol(demand, n_nodes, RHO)


def crash_wave():
    return FaultSchedule.crash_wave(40.0, [0, 1], recover_at=60.0)


def test_qcr_runs_the_plain_loop():
    assert loop_of(10, qcr) == "plain"


def test_small_hook_free_run_takes_the_plain_loop():
    assert loop_of(10, uni) == "plain"


def test_large_hook_free_run_takes_the_masked_loop():
    assert loop_of(_MASK_MIN_NODES, uni, contact_rate=0.0005) == "masked"


@pytest.mark.parametrize("builder", [qcr, uni], ids=["qcr", "uni"])
def test_faults_take_the_checked_loop(builder):
    assert loop_of(10, builder, faults=crash_wave()) == "checked"


@pytest.mark.parametrize("builder", [qcr, uni], ids=["qcr", "uni"])
def test_tracing_takes_the_checked_loop(builder):
    assert loop_of(10, builder, tracer=Tracer.in_memory()) == "checked"


def test_faults_and_tracing_take_the_checked_loop():
    assert (
        loop_of(10, qcr, faults=crash_wave(), tracer=Tracer.in_memory())
        == "checked"
    )


def test_tracing_outranks_the_masked_loop():
    assert (
        loop_of(
            _MASK_MIN_NODES,
            uni,
            tracer=Tracer.in_memory(),
            contact_rate=0.0005,
        )
        == "checked"
    )
