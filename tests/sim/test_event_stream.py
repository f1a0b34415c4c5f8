"""The pre-merged event stream: ordering properties and the frozen
reference engine's equivalence to the optimized one."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contacts import ContactTrace, homogeneous_poisson_trace
from repro.demand import DemandModel, RequestSchedule, generate_requests
from repro.experiments import result_to_dict
from repro.faults import FaultEvent, FaultSchedule
from repro.protocols import (
    QCR,
    PassiveReplication,
    ReplicationProtocol,
    uni_protocol,
)
from repro.sim import Simulation, SimulationConfig
from repro.sim._reference import ReferenceSimulation
from repro.sim.engine import (
    _MASK_MIN_NODES,
    EVENT_CONTACT,
    EVENT_FAULT,
    EVENT_REQUEST,
)
from repro.utility import StepUtility

N_NODES, N_ITEMS, RHO = 6, 5, 2
UTILITY = StepUtility(8.0)


# ----------------------------------------------------------------------
# property: the merged stream is the three sorted streams, interleaved
# with the fault -> request -> contact tie rule
# ----------------------------------------------------------------------
@st.composite
def colliding_workloads(draw):
    """Workloads drawn on a coarse time grid so same-time ties abound."""
    grid = [float(g) for g in range(11)]
    contact_times = sorted(
        draw(st.lists(st.sampled_from(grid), min_size=1, max_size=15))
    )
    request_times = sorted(
        draw(st.lists(st.sampled_from(grid), min_size=0, max_size=15))
    )
    fault_times = sorted(
        draw(st.lists(st.sampled_from(grid), min_size=0, max_size=6))
    )
    return contact_times, request_times, fault_times


def build_sim(contact_times, request_times, fault_times):
    duration = 10.0
    trace = ContactTrace(
        times=np.array(contact_times),
        node_a=np.zeros(len(contact_times), dtype=np.int64),
        node_b=np.ones(len(contact_times), dtype=np.int64),
        n_nodes=N_NODES,
        duration=duration,
    )
    requests = RequestSchedule(
        times=np.array(request_times),
        items=np.zeros(len(request_times), dtype=np.int64),
        nodes=np.full(len(request_times), 2, dtype=np.int64),
        duration=duration,
    )
    faults = FaultSchedule(
        events=tuple(
            FaultEvent(time=t, kind="crash", node=3) for t in fault_times
        )
    )
    config = SimulationConfig(n_items=N_ITEMS, rho=RHO, utility=UTILITY)
    return Simulation(
        trace, requests, config, PassiveReplication(), seed=0, faults=faults
    )


@settings(max_examples=60, deadline=None)
@given(workload=colliding_workloads())
def test_merged_stream_ordering(workload):
    contact_times, request_times, fault_times = workload
    sim = build_sim(*workload)
    times = sim._event_times
    kinds = sim._event_kinds

    # Complete: every source event appears exactly once.
    assert len(times) == len(contact_times) + len(request_times) + len(
        fault_times
    )
    assert [
        t for t, k in zip(times, kinds) if k == EVENT_CONTACT
    ] == contact_times
    assert [
        t for t, k in zip(times, kinds) if k == EVENT_REQUEST
    ] == request_times
    assert [
        t for t, k in zip(times, kinds) if k == EVENT_FAULT
    ] == fault_times

    # Sorted by time; ties resolved fault < request < contact.
    for k in range(1, len(times)):
        assert times[k - 1] <= times[k]
        if times[k - 1] == times[k]:
            assert kinds[k - 1] <= kinds[k]


class _OneCopyAtNode1(ReplicationProtocol):
    """Static protocol: item 0 lives only at node 1, nothing else."""

    name = "ONECOPY"

    def initialize(self, sim):
        allocation = np.zeros(
            (sim.config.n_items, sim.n_servers), dtype=np.int64
        )
        allocation[0, 1] = 1
        sim.set_initial_allocation(allocation)


def test_same_time_fault_applies_before_contact():
    # A crash at t=5 must pre-empt the t=5 contact: the crashed node
    # cannot serve, so the request stays outstanding.
    duration = 10.0
    trace = ContactTrace(
        times=np.array([5.0]),
        node_a=np.array([0]),
        node_b=np.array([1]),
        n_nodes=3,
        duration=duration,
    )
    requests = RequestSchedule(
        times=np.array([1.0]),
        items=np.array([0]),
        nodes=np.array([0]),
        duration=duration,
    )
    config = SimulationConfig(n_items=2, rho=1, utility=UTILITY)
    faults = FaultSchedule(
        events=(FaultEvent(time=5.0, kind="crash", node=1),)
    )
    sim = Simulation(
        trace, requests, config, _OneCopyAtNode1(), seed=0, faults=faults
    )
    assert 0 in sim.nodes[1].cache
    result = sim.run()
    assert result.n_fulfilled == 0


# ----------------------------------------------------------------------
# the frozen pre-optimization engine stays bit-identical
# ----------------------------------------------------------------------
def run_both(
    protocol_builder,
    *,
    request_timeout=None,
    faults=None,
    seed=3,
    n_nodes=N_NODES,
    contact_rate=0.15,
    total_rate=2.0,
    servers=None,
):
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=total_rate)
    trace = homogeneous_poisson_trace(
        n_nodes, contact_rate, 200.0, seed=seed
    )
    requests = generate_requests(demand, n_nodes, 200.0, seed=seed + 1)
    config = SimulationConfig(
        n_items=N_ITEMS,
        rho=RHO,
        utility=UTILITY,
        servers=servers,
        request_timeout=request_timeout,
        record_interval=50.0,
    )
    results = []
    for cls in (Simulation, ReferenceSimulation):
        protocol = protocol_builder(demand)
        sim = cls(
            trace, requests, config, protocol, seed=seed + 2, faults=faults
        )
        results.append(sim.run())
    return results


@pytest.mark.parametrize(
    "builder",
    [
        pytest.param(lambda d: uni_protocol(d, N_NODES, RHO), id="uni"),
        pytest.param(lambda d: PassiveReplication(), id="passive"),
        pytest.param(lambda d: QCR(UTILITY, 0.15), id="qcr"),
    ],
)
def test_reference_engine_equivalence(builder):
    optimized, reference = run_both(builder)
    assert result_to_dict(optimized) == result_to_dict(reference)


def test_reference_engine_equivalence_with_timeout_and_faults():
    faults = FaultSchedule.crash_wave(
        100.0, [0, 1], recover_at=150.0, wipe_cache=True
    )
    optimized, reference = run_both(
        lambda d: QCR(UTILITY, 0.15), request_timeout=25.0, faults=faults
    )
    assert result_to_dict(optimized) == result_to_dict(reference)


MASK_NODES = 600


@pytest.mark.parametrize(
    "request_timeout", [None, 8.0], ids=["no-timeout", "timeout"]
)
@pytest.mark.parametrize(
    "n_servers", [MASK_NODES, MASK_NODES // 2], ids=["p2p", "dedicated"]
)
def test_reference_engine_equivalence_masked_loop(request_timeout, n_servers):
    """A hook-free static protocol on at least ``_MASK_MIN_NODES`` nodes
    takes the vectorized masked loop; it must match the reference bit
    for bit, with and without a request timeout, and with contacts
    between two non-servers masked out (the dedicated case)."""
    assert MASK_NODES >= _MASK_MIN_NODES
    servers = (
        None if n_servers == MASK_NODES else tuple(range(n_servers))
    )
    optimized, reference = run_both(
        lambda d: uni_protocol(d, n_servers, RHO),
        request_timeout=request_timeout,
        n_nodes=MASK_NODES,
        contact_rate=0.0005,
        total_rate=5.0,
        servers=servers,
    )
    assert result_to_dict(optimized) == result_to_dict(reference)
    assert reference.n_fulfilled > reference.n_immediate > 0
    if request_timeout is not None:
        assert reference.n_expired > 0
