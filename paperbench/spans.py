"""Outside-in span tracing of the figure-regeneration layers.

The benchmark never edits the package: a traced run swaps the public
functions a sweep calls into for thin wrappers that record one span per
call, and puts every original back when the run ends, error or not.

A span is ``(name, start, end, parent, workload, seed)`` plus the phase
it ran in (``setup`` or ``timed``) and a few counts read off the call's
arguments and result.  Spans stay in memory; :meth:`SpanRecorder.write`
dumps them as JSON lines once the run is over.

:func:`layer_metrics` folds the spans into the per-layer metrics listed
in ``README.md``.  A span's self time is its duration minus the time its
direct child spans cover; all wrapped calls run on one thread, so spans
nest and the children's durations simply add.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Span",
    "SpanRecorder",
    "instrument",
    "layer_metrics",
    "self_times",
    "LAYER_METRICS",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str
    seed: int
    phase: str
    counts: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory, in call order, with their parents."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.phase = "setup"
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Record one span; the yielded dict collects its counts."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(
            name, time.perf_counter(), 0.0, parent,
            self.workload, self.seed, self.phase,
        )
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record.counts
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


# ----------------------------------------------------------------------
# the wrapped call sites
# ----------------------------------------------------------------------
Note = Callable[[Dict[str, Any], tuple, dict, Any], None]


def _wrap(recorder: SpanRecorder, name: str, fn: Callable,
          note: Optional[Note] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name) as counts:
            result = fn(*args, **kwargs)
            if note is not None:
                note(counts, args, kwargs, result)
            return result

    return wrapper


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _note_trace(counts, args, kwargs, trace) -> None:
    counts["contacts"] = len(trace)


def _note_requests(counts, args, kwargs, requests) -> None:
    counts["requests"] = len(requests)


def _note_greedy(counts, args, kwargs, result) -> None:
    counts["evaluations"] = int(result.evaluations)


def _note_get(counts, args, kwargs, result) -> None:
    counts["hit"] = result is not None


def _note_simulate(counts, args, kwargs, result) -> None:
    trace = _arg(args, kwargs, 0, "trace")
    requests = _arg(args, kwargs, 1, "requests")
    config = _arg(args, kwargs, 2, "config")
    counts["timeout"] = config.request_timeout is not None
    counts["events"] = len(trace) + len(requests)
    counts["expired"] = int(result.n_expired)


def _note_comparison(counts, args, kwargs, result) -> None:
    counts["units"] = len(result.telemetry)


#: (module, attribute path, span name, count hook).  Functions
#: are patched where the sweep looks them up, not where they are defined.
_SITES = (
    ("repro.experiments.scenarios", "homogeneous_poisson_trace",
     "contacts", _note_trace),
    ("repro.experiments.scenarios", "conference_trace",
     "contacts", _note_trace),
    ("repro.experiments.scenarios", "vehicular_trace",
     "contacts", _note_trace),
    ("repro.experiments.scenarios", "homogenized_poisson",
     "contacts", _note_trace),
    ("repro.experiments.runner", "generate_requests",
     "demand", _note_requests),
    ("repro.experiments.scenarios", "greedy_heterogeneous",
     "allocation.greedy", _note_greedy),
    ("repro.protocols.static", "greedy_homogeneous",
     "allocation.greedy", None),
    ("repro.experiments.runner", "run_key", "simcache.key", None),
    ("repro.simcache.store", "SimulationRunCache.get",
     "simcache.get", _note_get),
    ("repro.simcache.store", "SimulationRunCache.put",
     "simcache.put", None),
    ("repro.experiments.artifacts", "build_event_stream",
     "events.merge", None),
    ("repro.experiments.runner", "simulate", "engine.run", _note_simulate),
    ("repro.experiments.figures", "run_comparison",
     "runner", _note_comparison),
    ("repro.experiments.scenarios", "run_comparison",
     "runner", _note_comparison),
)

#: Protocol-suite builders whose returned factories get ``allocation.build``.
_SUITE_SITES = (
    ("repro.experiments.figures", "standard_protocols"),
    ("repro.experiments.scenarios", "standard_protocols"),
)


def _resolve(module: str, path: str) -> tuple:
    """``(owner, attribute)`` for a dotted *path* inside *module*."""
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _wrap_suite(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        factories = fn(*args, **kwargs)
        return {
            name: _wrap(recorder, "allocation.build", factory)
            for name, factory in factories.items()
        }

    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every call site for the duration of the block.

    Each original attribute is read from the owner's ``__dict__`` and
    written back in ``finally``, so the package is byte-for-byte what it
    was before, however the block ends.
    """
    saved: List[tuple] = []
    try:
        for module, path, name, note in _SITES:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original, note))
        for module, path in _SUITE_SITES:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap_suite(recorder, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# folding spans into metrics
# ----------------------------------------------------------------------
#: Every per-layer metric name, in report order.
LAYER_METRICS = (
    ("contacts.synth_s", "s"),
    ("contacts.calls", "count"),
    ("contacts.contacts", "count"),
    ("demand.requests_s", "s"),
    ("demand.requests", "count"),
    ("allocation.build_s", "s"),
    ("allocation.greedy_s", "s"),
    ("allocation.greedy_calls", "count"),
    ("allocation.evaluations", "count"),
    ("simcache.key_s", "s"),
    ("simcache.get_s", "s"),
    ("simcache.hit_ratio", "ratio"),
    ("events.merge_s", "s"),
    ("events.merges", "count"),
    ("events.reuse", "ratio"),
    ("engine.run_s.timeout", "s"),
    ("engine.run_s.no_timeout", "s"),
    ("engine.runs", "count"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.expired", "count"),
    ("runner.self_s", "s"),
    ("runner.units", "count"),
    ("figures.self_s", "s"),
    ("setup.simcache.put_s", "s"),
    ("setup.engine.run_s", "s"),
    ("bench.trace_overhead_s", "s"),
)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (``bench.*`` excluded).

    Everything is taken from the timed phase except the ``setup.*``
    metrics, which cover the set-up phase (where the cached workload
    fills its run cache).
    """
    own = self_times(spans)
    timed = [s for s in spans if s.phase == "timed"]
    setup = [s for s in spans if s.phase == "setup"]

    def total(name: str, pool: Sequence[Span] = timed) -> float:
        return sum(s.duration for s in pool if s.name == name)

    def count(name: str) -> int:
        return sum(1 for s in timed if s.name == name)

    def summed(name: str, key: str) -> int:
        return sum(int(s.counts.get(key, 0)) for s in timed if s.name == name)

    def self_time(name: str) -> float:
        return sum(
            own[i] for i, s in enumerate(spans)
            if s.phase == "timed" and s.name == name
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runs = [s for s in timed if s.name == "engine.run"]
    run_s = sum(s.duration for s in runs)
    lookups = count("simcache.get")
    merges = count("events.merge")
    return {
        "contacts.synth_s": total("contacts"),
        "contacts.calls": count("contacts"),
        "contacts.contacts": summed("contacts", "contacts"),
        "demand.requests_s": total("demand"),
        "demand.requests": summed("demand", "requests"),
        "allocation.build_s": total("allocation.build"),
        "allocation.greedy_s": total("allocation.greedy"),
        "allocation.greedy_calls": count("allocation.greedy"),
        "allocation.evaluations": summed("allocation.greedy", "evaluations"),
        "simcache.key_s": total("simcache.key"),
        "simcache.get_s": total("simcache.get"),
        "simcache.hit_ratio": ratio(summed("simcache.get", "hit"), lookups),
        "events.merge_s": total("events.merge"),
        "events.merges": merges,
        "events.reuse": ratio(len(runs), merges),
        "engine.run_s.timeout": sum(
            s.duration for s in runs if s.counts["timeout"]
        ),
        "engine.run_s.no_timeout": sum(
            s.duration for s in runs if not s.counts["timeout"]
        ),
        "engine.runs": len(runs),
        "engine.events": summed("engine.run", "events"),
        "engine.events_per_s": ratio(summed("engine.run", "events"), run_s),
        "engine.expired": summed("engine.run", "expired"),
        "runner.self_s": self_time("runner"),
        "runner.units": summed("runner", "units"),
        "figures.self_s": self_time("figures"),
        "setup.simcache.put_s": total("simcache.put", setup),
        "setup.engine.run_s": total("engine.run", setup),
    }
