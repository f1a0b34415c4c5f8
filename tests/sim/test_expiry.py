"""Request expiry: the engine's per-node expiry floor against the reference.

Every engine loop expires requests through ``Simulation._expire_requests``,
which skips its scan while the node's ``_expiry_floor`` (a lower bound
on the oldest outstanding ``created_at``) is at or past the deadline.
The differential test draws protocol, utility, timeout, faults, tracing
and node count and demands bit-identity with ``ReferenceSimulation``,
whose own expiry scans every request list on every contact.  The
invariant tests pin what the floor and the head check rely on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contacts import ContactTrace, homogeneous_poisson_trace
from repro.demand import DemandModel, RequestSchedule, generate_requests
from repro.experiments import result_to_dict
from repro.experiments.figures import recommended_timeout
from repro.faults import FaultSchedule
from repro.obs import Tracer, events
from repro.obs import metrics as obs_metrics
from repro.protocols import (
    QCR,
    ReplicationProtocol,
    opt_protocol,
    uni_protocol,
)
from repro.sim import Simulation, SimulationConfig
from repro.sim._reference import ReferenceSimulation
from repro.sim.engine import _MASK_MIN_NODES
from repro.utility import PowerUtility, StepUtility

N_ITEMS, RHO, MU, DURATION, TAU = 5, 2, 0.05, 150.0, 4.0
UTILITIES = {"step": StepUtility(TAU), "power": PowerUtility(0.5)}
#: ``None``, a timeout short enough to expire most requests, and the
#: figures' value for tau-impatient requests (10 tau).
TIMEOUTS = {
    "none": None,
    "tiny": 0.2,
    "recommended": recommended_timeout(StepUtility(TAU), DURATION),
}


def build_protocol(name, demand, utility, n_nodes):
    if name == "OPT":
        return opt_protocol(
            demand, utility, MU, n_nodes, RHO, pure_p2p=True,
            n_clients=n_nodes,
        )
    if name == "UNI":
        return uni_protocol(demand, n_nodes, RHO)
    return QCR(utility, MU)


@settings(max_examples=150, deadline=None)
@given(
    protocol=st.sampled_from(["OPT", "UNI", "QCR"]),
    utility_name=st.sampled_from(sorted(UTILITIES)),
    timeout_name=st.sampled_from(sorted(TIMEOUTS)),
    crashed=st.frozensets(st.integers(0, 5), max_size=3),
    traced=st.booleans(),
    n_nodes=st.integers(6, 40),
    seed=st.integers(0, 2**16),
)
def test_expiry_matches_reference(
    protocol, utility_name, timeout_name, crashed, traced, n_nodes, seed
):
    utility = UTILITIES[utility_name]
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0)
    trace = homogeneous_poisson_trace(n_nodes, MU, DURATION, seed=seed)
    requests = generate_requests(demand, n_nodes, DURATION, seed=seed + 1)
    config = SimulationConfig(
        n_items=N_ITEMS,
        rho=RHO,
        utility=utility,
        request_timeout=TIMEOUTS[timeout_name],
        record_interval=50.0,
    )
    # An empty draw is the fault-free case; otherwise a crash/recover
    # wave over the drawn nodes.
    faults = (
        FaultSchedule.crash_wave(
            0.4 * DURATION, crashed, recover_at=0.6 * DURATION
        )
        if crashed
        else None
    )
    tracer = Tracer.in_memory() if traced else None
    optimized = Simulation(
        trace, requests, config,
        build_protocol(protocol, demand, utility, n_nodes),
        seed=seed + 2, faults=faults, tracer=tracer,
    ).run()
    reference = ReferenceSimulation(
        trace, requests, config,
        build_protocol(protocol, demand, utility, n_nodes),
        seed=seed + 2, faults=faults,
    ).run()
    # Manifests are provenance (host timings), present only when traced.
    optimized_dict = result_to_dict(optimized)
    reference_dict = result_to_dict(reference)
    optimized_dict.pop("manifest")
    reference_dict.pop("manifest")
    assert optimized_dict == reference_dict
    if tracer is not None:
        n_abandon = sum(
            1 for e in tracer.sink.events if e["kind"] == events.ABANDON
        )
        assert n_abandon == optimized.n_expired


# ----------------------------------------------------------------------
# the invariants the head check and the floor rely on, in every loop
# ----------------------------------------------------------------------
LOOP_CASES = {
    "plain": dict(n_nodes=10, protocol="QCR", contact_rate=0.1),
    "masked": dict(
        n_nodes=_MASK_MIN_NODES, protocol="UNI", contact_rate=0.0005
    ),
    "checked": dict(
        n_nodes=10, protocol="QCR", contact_rate=0.1,
        faults=FaultSchedule.crash_wave(40.0, [0, 1], recover_at=60.0),
    ),
}


def run_timed(loop, *, request_timeout=2.0, collect_manifest=True):
    case = LOOP_CASES[loop]
    n_nodes = case["n_nodes"]
    utility = StepUtility(8.0)
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0)
    trace = homogeneous_poisson_trace(
        n_nodes, case["contact_rate"], 100.0, seed=3
    )
    requests = generate_requests(demand, n_nodes, 100.0, seed=4)
    config = SimulationConfig(
        n_items=N_ITEMS, rho=RHO, utility=utility,
        request_timeout=request_timeout,
    )
    sim = Simulation(
        trace, requests, config,
        build_protocol(case["protocol"], demand, utility, n_nodes),
        seed=5, faults=case.get("faults"),
        collect_manifest=collect_manifest,
    )
    return sim, sim.run()


@pytest.mark.parametrize("loop", sorted(LOOP_CASES))
def test_request_lists_sorted_and_floor_below_oldest_head(loop):
    sim, result = run_timed(loop)
    assert result.manifest["loop"] == loop
    assert result.n_expired > 0
    outstanding = [
        (node.node_id, out) for node in sim.nodes
        if (out := node.outstanding)
    ]
    assert outstanding
    for node_id, out in outstanding:
        for request_list in out.values():
            created = [r.created_at for r in request_list]
            assert created == sorted(created)
        oldest = min(lst[0].created_at for lst in out.values())
        assert sim._expiry_floor[node_id] <= oldest


@pytest.mark.parametrize("loop", sorted(LOOP_CASES))
def test_expiry_scans_bounded_by_requests_not_contacts(loop):
    # A scan past the floor is each node's first, or is charged to a
    # request (one that sets the floor, or arrives after a scan that
    # emptied the node), each at most twice: ≤ n_nodes + 2·requests.
    sim, result = run_timed(loop)
    scans = result.manifest["expiry_scans"]
    assert 0 < scans <= len(sim.nodes) + 2 * result.n_generated


class _ItemOneAtNodeOne(ReplicationProtocol):
    """Static: node 1 caches only item 1, so it never serves item 0."""

    name = "ITEM1"

    def initialize(self, sim):
        allocation = np.zeros(
            (sim.config.n_items, sim.n_servers), dtype=np.int64
        )
        allocation[1, 1] = 1
        sim.set_initial_allocation(allocation)


@pytest.mark.parametrize(
    "loop, n_nodes, traced",
    [("plain", 3, False), ("masked", _MASK_MIN_NODES, False),
     ("checked", 3, True)],
)
def test_floor_skips_every_scan_that_cannot_expire(loop, n_nodes, traced):
    # Node 0 asks for item 0 at t=1 and t=2 and meets node 1 (which
    # never has it) at t=3, 4, ..., 20, with a timeout of 10.  The
    # first contact scans (floor -inf -> 1); t=12 expires the t=1
    # request (floor -> 2); t=13 expires the other and empties the node.
    # Every other contact is skipped: exactly three scans.
    times = np.arange(3.0, 21.0)
    trace = ContactTrace(
        times=times,
        node_a=np.zeros(len(times), dtype=np.int64),
        node_b=np.ones(len(times), dtype=np.int64),
        n_nodes=n_nodes,
        duration=25.0,
    )
    requests = RequestSchedule(
        times=np.array([1.0, 2.0]),
        items=np.zeros(2, dtype=np.int64),
        nodes=np.zeros(2, dtype=np.int64),
        duration=25.0,
    )
    config = SimulationConfig(
        n_items=2, rho=1, utility=StepUtility(1.0), request_timeout=10.0
    )
    sim = Simulation(
        trace, requests, config, _ItemOneAtNodeOne(), seed=0,
        tracer=Tracer.in_memory() if traced else None,
        collect_manifest=True,
    )
    result = sim.run()
    assert result.manifest["loop"] == loop
    assert result.n_expired == 2
    assert result.manifest["expiry_scans"] == 3
    assert sim._expiry_floor[0] == 3.0


def test_no_timeout_runs_no_expiry_scan():
    _, result = run_timed("plain", request_timeout=None)
    assert result.manifest["expiry_scans"] == 0


@pytest.fixture
def metrics_enabled():
    obs_metrics.reset_registry()
    obs_metrics.set_enabled(True)
    yield obs_metrics.registry()
    obs_metrics.reset_registry()
    obs_metrics.set_enabled(None)


def test_expiry_scans_exported_only_when_metrics_enabled(metrics_enabled):
    _, result = run_timed("plain")
    series = metrics_enabled.snapshot()["repro_sim_expiry_scans_total"]
    assert series["series"][0]["value"] == result.manifest["expiry_scans"]
    obs_metrics.reset_registry()
    obs_metrics.set_enabled(False)
    run_timed("plain", collect_manifest=False)
    assert len(obs_metrics.registry()) == 0
