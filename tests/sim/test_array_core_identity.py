"""Array-backed engine vs. frozen reference under full instrumentation.

The optimized engine picks one of three loops at run time: plain and
masked (no tracer, no faults), or checked (faults and/or tracing).
Earlier identity tests pin tracing-only and faults-only runs of the
checked loop; these pin the *combined* mode —
a fault schedule (crashes, recoveries, drops, replica losses) active at
the same time as JSONL tracing — which exercises the dynamic
meeting-count bookkeeping and the tracer hooks together.  Every mode
must match :class:`~repro.sim._reference.ReferenceSimulation` bit for
bit.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.contacts import homogeneous_poisson_trace
from repro.demand import DemandModel, generate_requests
from repro.faults import FaultEvent, FaultSchedule
from repro.obs import Tracer
from repro.protocols import QCR, PassiveReplication, prop_protocol
from repro.sim import Simulation, SimulationConfig
from repro.sim._reference import ReferenceSimulation
from repro.utility import StepUtility

N_NODES, N_ITEMS, RHO = 10, 6, 2
DURATION = 400.0
UTILITY = StepUtility(10.0)


def workload(seed=3):
    demand = DemandModel.pareto(N_ITEMS, omega=1.0, total_rate=2.0)
    trace = homogeneous_poisson_trace(N_NODES, 0.1, DURATION, seed=seed)
    requests = generate_requests(demand, N_NODES, DURATION, seed=seed + 1)
    return demand, trace, requests


def config(**overrides):
    params = dict(
        n_items=N_ITEMS, rho=RHO, utility=UTILITY, record_interval=50.0
    )
    params.update(overrides)
    return SimulationConfig(**params)


def make_faults():
    """A schedule mixing every fault kind plus random drops."""
    events = (
        FaultEvent(time=80.0, kind="crash", node=1),
        FaultEvent(time=120.0, kind="recover", node=1),
        FaultEvent(time=150.0, kind="crash", node=4),
        FaultEvent(time=200.0, kind="replica_loss", node=2),
    )
    return FaultSchedule(events=events, drop_prob=0.2, seed=17)


def assert_identical(a, b):
    """Field-by-field bitwise equality, ignoring the run manifest."""
    for f in dataclasses.fields(a):
        if f.name == "manifest":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        elif isinstance(x, float) and np.isnan(x):
            assert np.isnan(y), f.name
        else:
            assert x == y, f.name


BUILDERS = [
    pytest.param(
        lambda demand: prop_protocol(demand, N_NODES, RHO), id="opt"
    ),
    pytest.param(lambda demand: QCR(UTILITY, 0.12), id="qcr"),
    pytest.param(lambda demand: PassiveReplication(), id="passive"),
]


@pytest.mark.parametrize("builder", BUILDERS)
def test_faults_and_jsonl_tracing_bit_identical(builder, tmp_path):
    demand, trace, requests = workload()

    def run(cls, trace_path):
        with Tracer.to_jsonl(
            str(trace_path), meta={"engine": cls.__name__}
        ) as tracer:
            sim = cls(
                trace,
                requests,
                config(),
                builder(demand),
                seed=7,
                faults=make_faults(),
                tracer=tracer,
            )
            return sim.run()

    reference = run(ReferenceSimulation, tmp_path / "ref.jsonl")
    optimized = run(Simulation, tmp_path / "opt.jsonl")
    assert_identical(reference, optimized)
    assert reference.n_crashes == optimized.n_crashes


@pytest.mark.parametrize("builder", BUILDERS)
def test_faults_and_tracing_stream_is_deterministic(builder, tmp_path):
    """Two identically-seeded faulted+traced runs write the same JSONL
    stream, and the stream actually records the fault activity (the
    combined mode is exercised, not silently routed past the tracer)."""
    demand, trace, requests = workload()

    def lines(name):
        path = tmp_path / name
        with Tracer.to_jsonl(str(path)) as tracer:
            Simulation(
                trace,
                requests,
                config(),
                builder(demand),
                seed=7,
                faults=make_faults(),
                tracer=tracer,
            ).run()
        with open(path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    first = lines("first.jsonl")
    second = lines("second.jsonl")
    assert first == second
    kinds = {event["kind"] for event in first}
    assert "fault" in kinds or "contact_drop" in kinds


@pytest.mark.parametrize("builder", BUILDERS)
def test_faults_only_bit_identical(builder):
    """The checked loop with faults only (dynamic meeting counts)
    matches the reference."""
    demand, trace, requests = workload(seed=9)
    results = []
    for cls in (ReferenceSimulation, Simulation):
        sim = cls(
            trace,
            requests,
            config(request_timeout=60.0),
            builder(demand),
            seed=11,
            faults=make_faults(),
        )
        results.append(sim.run())
    assert_identical(results[0], results[1])


def test_occupancy_consistent_after_faulted_run():
    """Replica counts derived from caches equal the engine's counters
    after a run that crashed, recovered, and lost replicas."""
    demand, trace, requests = workload(seed=5)
    sim = Simulation(
        trace,
        requests,
        config(),
        QCR(UTILITY, 0.12),
        seed=7,
        faults=make_faults(),
    )
    sim.run()
    recount = np.zeros(N_ITEMS, dtype=np.int64)
    for node in sim.nodes:
        if node.cache is not None:
            for item in node.cache.items():
                recount[item] += 1
    assert np.array_equal(recount, sim.counts)
