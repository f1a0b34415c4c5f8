"""Multi-trial experiment runner.

The paper's plots average 15+ simulation trials and show 5%/95%
percentile intervals; every algorithm within a trial shares the same
contact trace and request arrivals (paired comparison).  This module
provides exactly that machinery, independent of which scenario or figure
is being reproduced.

Robustness features (all opt-in, defaults preserve the original
behavior):

* *fault injection* — a :class:`~repro.faults.FaultSchedule` (or a
  per-trial factory) shared by every protocol in a trial, so paired
  comparisons stay paired under churn;
* *per-trial fault isolation* — ``on_error`` decides what a failing
  protocol factory or simulation does to the sweep: ``"raise"``
  (propagate, the historical behavior), ``"skip"`` (record the failure
  and keep going), or ``"retry"`` (re-attempt with capped exponential
  backoff, then skip);
* *partial results* — :class:`ComparisonResult` reports per-run
  :class:`TrialFailure` records alongside the statistics of whatever
  succeeded;
* *checkpoint/resume* — ``checkpoint_path`` persists every completed
  run to JSON (atomically, see :mod:`repro.experiments.checkpoint`), so
  an interrupted sweep resumes instead of restarting;
* *parallel execution* — ``n_workers`` fans the ``(trial, protocol)``
  work units out over a process pool, capped at the CPU count and the
  pending units.  Per-run seeds are derived from the same
  :class:`numpy.random.SeedSequence` walk as the serial path, so
  parallel results are **bit-identical** to serial ones; workers
  return completed runs and the parent process owns the checkpoint
  file, so checkpoint/resume and the ``on_error`` policies compose
  unchanged;
* *telemetry* — every run yields a :class:`RunTelemetry` record (stage
  timings, attempts, outcome, executing worker) merged into
  ``ComparisonResult.telemetry`` in deterministic trial-major order
  regardless of worker completion order; ``progress`` enables a live
  reporter (structured log lines or a user callback) and
  ``profile_dir`` dumps per-worker cProfile stats;
* *pluggable executors* — ``executor`` selects the backend that runs
  the pending units (see :mod:`repro.dist`): the in-process serial
  walk, the fork pool, or the fault-tolerant work-queue backend whose
  independent workers coordinate through leases on a (possibly shared)
  filesystem and survive SIGKILL at any instruction.  All backends
  produce bit-identical statistics;
* *one unit runner* — every backend runs its units through one
  :class:`_UnitRunner` per process, which realizes each trial once
  (trace, requests, faults), keeps only the current trial, and shares
  the trial's fingerprints and merged event stream across its
  protocols.  Executors differ only in where units run.
"""

from __future__ import annotations

import cProfile
import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..contacts import ContactTrace
from ..contacts.binary import is_binary_trace
from ..demand import DemandModel, RequestSchedule, generate_requests
from ..durable import truncate_error_text
from ..errors import ConfigurationError, SimulationError
from ..faults import FaultSchedule
from ..obs.log import get_logger
from ..obs import metrics as obs_metrics
from ..obs.manifest import environment_provenance
from ..obs.timing import Stopwatch
from ..protocols.base import ReplicationProtocol
from ..sim import SimulationConfig, SimulationResult, simulate
from ..simcache import (
    SimulationRunCache,
    UncacheableRunError,
    fingerprint_trace,
    resolve_run_cache,
    run_key,
)
from ..types import FloatArray
from .artifacts import TrialArtifacts, load_spilled_trace, spill_trial_trace
from .checkpoint import ComparisonCheckpoint, PathLike

if TYPE_CHECKING:  # pragma: no cover - typing-only (dist imports us lazily)
    from ..dist.executors import ExecutorLike, SweepSpec

__all__ = [
    "TrialInputs",
    "TrialFailure",
    "AlgorithmStats",
    "ComparisonResult",
    "RunTelemetry",
    "run_comparison",
    "percentile_interval",
]

#: A protocol factory: given the trial's trace and request schedule,
#: build a fresh protocol instance (heterogeneous OPT needs the trace).
ProtocolFactory = Callable[[ContactTrace, RequestSchedule], ReplicationProtocol]

#: Faults for a sweep: one shared schedule, or a per-trial factory.
FaultsLike = Union[FaultSchedule, Callable[[int], FaultSchedule]]

#: Live progress: ``True`` logs through ``repro.obs.log``; a callable
#: receives one dict per completed run (completion order).
ProgressLike = Union[bool, Callable[[Dict[str, Any]], None]]

#: Run-cache selector: ``None`` defers to ``REPRO_SIM_CACHE``, a bool
#: forces it on/off, a path or cache instance enables it at that root.
RunCacheLike = Union[None, bool, str, "os.PathLike[str]", SimulationRunCache]

#: Cache disposition markers carried in the ``_execute_run`` timing dict
#: (floats, since the dict is ``Dict[str, float]``): hit / miss /
#: inputs-not-fingerprintable.
_CACHE_HIT, _CACHE_MISS, _CACHE_UNCACHEABLE = 1.0, 0.0, -1.0


@dataclass(frozen=True)
class RunTelemetry:
    """Stage timings and outcome of one ``(trial, protocol)`` run.

    ``setup_wall_s`` is the trial-input realization cost *paid by this
    run* — the first run of a trial in a given process carries it, later
    runs reuse the cached inputs and report 0.  ``status`` is ``"ok"``,
    ``"failed"`` (all attempts exhausted), or ``"cached"`` (restored
    from a checkpoint, so no timing was observed).

    Timings are host measurements and vary run to run; only the
    *ordering* of telemetry in :attr:`ComparisonResult.telemetry` is
    deterministic (trial-major, protocol in insertion order — the same
    walk that assembles the statistics, independent of worker
    completion order).
    """

    trial: int
    protocol: str
    status: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_wall_s: float = 0.0
    attempts: int = 0
    gain_rate: Optional[float] = None
    #: Which worker executed the run — ``None`` for in-process execution,
    #: a work-queue worker id (``"w0"``, …) under the distributed backend.
    worker: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class _ProgressReporter:
    """Live per-run reporting for a sweep.

    Fires in completion order (what "live" means under a pool); the
    deterministic record is ``ComparisonResult.telemetry``.  With
    ``progress=True`` lines go through the structured logger; a callable
    gets one dict per run with running counts and elapsed time.
    """

    def __init__(self, total: int, progress: ProgressLike) -> None:
        self.total = total
        self.done = 0
        self._callback = progress if callable(progress) else None
        self._logger = (
            get_logger("repro.experiments.sweep")
            if self._callback is None
            else None
        )
        self._timer = Stopwatch()

    def report(self, telemetry: RunTelemetry) -> None:
        self.done += 1
        if self._callback is not None:
            event = {
                "completed": self.done,
                "total": self.total,
                "elapsed_s": self._timer.wall,
            }
            event.update(telemetry.to_dict())
            self._callback(event)
        elif self._logger is not None:
            self._logger.info(
                "run finished",
                run=f"{self.done}/{self.total}",
                trial=telemetry.trial,
                protocol=telemetry.protocol,
                status=telemetry.status,
                wall_s=f"{telemetry.wall_s:.3f}",
                elapsed_s=f"{self._timer.wall:.1f}",
            )

    def finish(self, n_failures: int) -> None:
        if self._logger is not None:
            self._logger.info(
                "sweep complete",
                runs=self.total,
                failures=n_failures,
                elapsed_s=f"{self._timer.wall:.1f}",
            )


@dataclass(frozen=True)
class TrialInputs:
    """The shared randomness of one trial."""

    trace: ContactTrace
    requests: RequestSchedule
    sim_seed: int


@dataclass(frozen=True)
class TrialFailure:
    """One ``(trial, protocol)`` run that failed after all attempts."""

    trial: int
    protocol: str
    error: str
    attempts: int


def percentile_interval(
    values: Sequence[float], lower: float = 5.0, upper: float = 95.0
) -> Tuple[float, float]:
    """The paper's 5%/95% confidence band over trial values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError(
            "percentile_interval needs at least one value (every trial "
            "failed or was filtered out?)"
        )
    if np.isnan(arr).all():
        raise ConfigurationError(
            "percentile_interval got all-NaN values; upstream runs "
            "produced no finite gain rates"
        )
    return float(np.percentile(arr, lower)), float(np.percentile(arr, upper))


@dataclass(frozen=True)
class AlgorithmStats:
    """Per-algorithm aggregate over (successful) trials."""

    name: str
    gain_rates: FloatArray
    results: Tuple[SimulationResult, ...]

    def __post_init__(self) -> None:
        rates = np.asarray(self.gain_rates, dtype=float)
        if rates.size == 0:
            raise ConfigurationError(
                f"AlgorithmStats({self.name!r}) needs at least one trial "
                "result"
            )
        if np.isnan(rates).all():
            raise ConfigurationError(
                f"AlgorithmStats({self.name!r}) got all-NaN gain rates"
            )
        object.__setattr__(self, "gain_rates", rates)

    @property
    def n_trials(self) -> int:
        return len(self.gain_rates)

    @property
    def mean_gain_rate(self) -> float:
        return float(self.gain_rates.mean())

    @property
    def interval(self) -> Tuple[float, float]:
        return percentile_interval(self.gain_rates)


@dataclass(frozen=True)
class ComparisonResult:
    """All algorithms' stats plus normalized losses vs. the baseline.

    ``failures`` lists every ``(trial, protocol)`` run that did not
    complete (only possible with ``on_error="skip"``/``"retry"``);
    algorithms whose runs *all* failed are absent from ``stats``.
    """

    stats: Dict[str, AlgorithmStats]
    baseline: str
    failures: Tuple[TrialFailure, ...] = ()
    n_trials: int = 0
    #: One record per ``(trial, protocol)`` run, trial-major order (the
    #: same deterministic walk as the statistics, regardless of worker
    #: completion order).  Values are host timings — metadata only.
    telemetry: Tuple[RunTelemetry, ...] = ()
    #: Sweep-level provenance (config fingerprint, seed walk identity,
    #: environment, total timings); also persisted into the checkpoint
    #: file when one is in use.
    manifest: Optional[Dict[str, Any]] = None

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    def normalized_loss(self, name: str) -> float:
        """The paper's ``(U - U_opt) / |U_opt|`` in percent (<= 0 usually)."""
        if self.baseline not in self.stats or name not in self.stats:
            return float("nan")
        reference = self.stats[self.baseline].mean_gain_rate
        if reference == 0:
            return float("nan")
        value = self.stats[name].mean_gain_rate
        return 100.0 * (value - reference) / abs(reference)

    def losses(self) -> Dict[str, float]:
        return {name: self.normalized_loss(name) for name in self.stats}

    def render(self, title: Optional[str] = None) -> str:
        """An aligned text table: mean gain rate, 5/95% band, loss."""
        from .reporting import render_table

        ranked = sorted(
            self.stats.values(),
            key=lambda s: s.mean_gain_rate,
            reverse=True,
        )
        rows = []
        for stats in ranked:
            lo, hi = stats.interval
            rows.append(
                [
                    stats.name,
                    f"{stats.mean_gain_rate:.4f}",
                    f"[{lo:.4f}, {hi:.4f}]",
                    f"{self.normalized_loss(stats.name):+.2f}%",
                ]
            )
        table = render_table(
            ["algorithm", "utility/min", "5-95%", "vs " + self.baseline],
            rows,
            title=title,
        )
        if not self.failures:
            return table
        lines = [table, "", f"failed runs ({self.n_failures}):"]
        lines.extend(
            f"  trial {f.trial} {f.protocol}: {f.error} "
            f"({f.attempts} attempt{'s' if f.attempts != 1 else ''})"
            for f in self.failures
        )
        return "\n".join(lines)


def _derive_trial_seeds(
    base_seed: int, n_trials: int
) -> List[Tuple[int, int, int]]:
    """The per-trial (trace, request, sim) seed triples.

    Seeds are drawn unconditionally for every trial — and identically in
    the serial, parallel, and resumed paths — so all of them walk the
    exact same :class:`numpy.random.SeedSequence` child stream.
    """
    seed_seq = np.random.SeedSequence(base_seed)
    return [
        tuple(int(s.generate_state(1)[0]) for s in seed_seq.spawn(3))
        for _ in range(n_trials)
    ]


def _build_trial_inputs(
    trace_factory: Callable[[int], ContactTrace],
    demand: DemandModel,
    n_clients: Optional[int],
    seeds: Tuple[int, int, int],
    *,
    faults: Optional[FaultSchedule] = None,
    spill_path: Optional[str] = None,
) -> TrialArtifacts:
    """Realize one trial's shared trace and request schedule.

    With *spill_path* the trace is memory-mapped from the parent's
    ``.ctb`` spill instead of regenerated from the trial seed — the
    zero-copy worker handoff — and the fingerprint memo is pre-seeded
    from the spill header when the parent recorded one.  *faults* is
    the trial's already-resolved fault schedule; every run of the trial
    uses that very object, so the shared event stream built from it is
    valid for all of them.
    """
    trace_seed, request_seed, sim_seed = seeds
    trace_fingerprint: Optional[str] = None
    if spill_path is not None and is_binary_trace(spill_path):
        trace, trace_fingerprint = load_spilled_trace(spill_path)
    else:
        # No spill for this trial (or a stale path from a resumed
        # queue manifest): regenerate from the trial seed as always.
        trace = trace_factory(trace_seed)
    clients = n_clients or trace.n_nodes
    requests = generate_requests(
        demand, clients, trace.duration, seed=request_seed
    )
    return TrialArtifacts(
        trace,
        requests,
        sim_seed,
        faults=faults,
        trace_fingerprint=trace_fingerprint,
    )


def _execute_run(
    factory: ProtocolFactory,
    inputs: TrialArtifacts,
    config: SimulationConfig,
    *,
    attempts_per_run: int,
    on_error: str,
    retry_backoff: float,
    max_backoff: float,
    cache: Optional[SimulationRunCache] = None,
) -> Tuple[
    Optional[SimulationResult],
    Optional[str],
    Dict[str, float],
    Optional[str],
]:
    """One (trial, protocol) run with the retry/skip policy applied.

    Returns ``(result, None, timing, run_key)`` on success and
    ``(None, error string, timing, run_key)`` after all attempts failed;
    with ``on_error="raise"`` the first failure propagates.  *timing*
    reports the simulate stage's wall/CPU seconds (backoff sleeps
    excluded) and the number of attempts actually made; with a *cache*
    it also carries a ``"cache"`` marker (hit / miss / uncacheable).
    *run_key* is the run's content-address when a cache is in use and
    the inputs were fingerprintable (``None`` otherwise) — the
    distributed backend records it with every published result.

    With a run cache, a content-key hit returns the stored result with
    zero attempts — no simulation happens; a completed miss is stored
    for next time.  Runs whose inputs cannot be fingerprinted execute
    uncached.

    Two trial-scoped amortizations apply: the cache key reuses the
    trial's memoized content fingerprints instead of re-hashing the
    arrays per protocol, and the simulation reuses the trial's prebuilt
    event stream (built from ``inputs.faults``, the schedule every run
    of the trial uses) instead of re-merging — both substitutions are
    byte-identical.  The protocol instance built to fingerprint the
    cache key is reused for the first simulation attempt rather than
    discarded and rebuilt (it is factory-fresh either way; retries
    still rebuild).
    """
    cache_key: Optional[str] = None
    cache_marker: Optional[float] = None
    probe: Optional[ReplicationProtocol] = None
    if cache is not None:
        try:
            probe = factory(inputs.trace, inputs.requests)
        # repro-lint: ignore[RPL007]
        except Exception:
            # A failing factory is the attempt loop's business (retry
            # policy, error accounting) — never the cache's: the same
            # error re-raises from the attempt loop below.
            probe = None
        if probe is not None:
            try:
                cache_key = run_key(
                    config,
                    probe,
                    inputs.sim_seed,
                    inputs.trace,
                    inputs.requests,
                    inputs.faults,
                    trace_fingerprint=inputs.trace_fingerprint(),
                    requests_fingerprint=inputs.requests_fingerprint(),
                    faults_fingerprint=inputs.faults_fingerprint(),
                )
                cache_marker = _CACHE_MISS
            except UncacheableRunError as error:
                cache_marker = _CACHE_UNCACHEABLE
                get_logger("repro.simcache").debug(
                    "run not cacheable", error=str(error)
                )
        if cache_key is not None:
            cached = cache.get(cache_key)
            if cached is not None:
                hit_timing = {
                    "wall_s": 0.0,
                    "cpu_s": 0.0,
                    "attempts": 0.0,
                    "cache": _CACHE_HIT,
                }
                return cached, None, hit_timing, cache_key
    result: Optional[SimulationResult] = None
    last_error: Optional[BaseException] = None
    wall_s = 0.0
    cpu_s = 0.0
    attempts_made = 0
    for attempt in range(attempts_per_run):
        if attempt:
            delay = min(retry_backoff * (2.0 ** (attempt - 1)), max_backoff)
            if delay > 0:
                time.sleep(delay)
        attempts_made = attempt + 1
        timer = Stopwatch()
        try:
            # The cache probe is a factory-fresh, never-run protocol —
            # reuse it for the first attempt instead of building an
            # identical twin.  Retries rebuild: a failed attempt may
            # have mutated protocol state.
            if attempt == 0 and probe is not None:
                protocol = probe
            else:
                protocol = factory(inputs.trace, inputs.requests)
            result = simulate(
                inputs.trace,
                inputs.requests,
                config,
                protocol,
                seed=inputs.sim_seed,
                faults=inputs.faults,
                prebuilt_events=inputs.event_stream(config),
            )
            timer.stop()
            wall_s += timer.wall
            cpu_s += timer.cpu
            break
        except Exception as error:
            timer.stop()
            wall_s += timer.wall
            cpu_s += timer.cpu
            if on_error == "raise":
                raise
            last_error = error
    timing: Dict[str, float] = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "attempts": attempts_made,
    }
    if cache_marker is not None:
        timing["cache"] = cache_marker
    if result is not None:
        if cache is not None and cache_key is not None:
            cache.put(cache_key, result)
        return result, None, timing, cache_key
    error_text = f"{type(last_error).__name__}: {last_error}"
    return None, error_text, timing, cache_key


def _run_status(
    result: Optional[SimulationResult], timing: Dict[str, float]
) -> str:
    """Telemetry status of one executed unit.

    ``"cached"`` marks a run-cache hit — the same status checkpoint
    resume uses, since in both cases no simulation was performed.
    """
    if result is None:
        return "failed"
    if timing.get("cache") == _CACHE_HIT:
        return "cached"
    return "ok"


def _count_cache_marker(
    counts: Dict[str, int], marker: Optional[float]
) -> None:
    """Accumulate one unit's cache disposition into the sweep counters."""
    if marker is None:
        return
    if marker == _CACHE_HIT:
        counts["hits"] += 1
    elif marker == _CACHE_MISS:
        counts["misses"] += 1
    else:
        counts["uncacheable"] += 1


#: One (trial, protocol, trace seed, request seed, sim seed) work unit.
_WorkUnit = Tuple[int, str, int, int, int]

#: Per-process cumulative profiler (lazily created when profiling is
#: requested); shared across all units a worker executes so one
#: ``.pstats`` file per worker accumulates its whole share of the sweep.
_PROCESS_PROFILER: Optional[cProfile.Profile] = None


def _process_profiler(
    profile_dir: Optional[str],
) -> Optional[cProfile.Profile]:
    global _PROCESS_PROFILER
    if profile_dir is None:
        return None
    if _PROCESS_PROFILER is None:
        _PROCESS_PROFILER = cProfile.Profile()
    return _PROCESS_PROFILER


class _UnitRunner:
    """One process's recipe for running work units, for every executor.

    The serial walk, each fork-pool worker, and each work-queue worker
    own one runner and hand it units in trial-major order.  The runner
    keeps only the current trial's :class:`TrialArtifacts`: when a unit
    of a new trial arrives it resolves the trial's faults (a per-trial
    factory is called once per process and trial), realizes the trace
    and requests — memory-mapping the trial's entry in *spills* when
    the parent spilled one — and every later protocol of the trial
    reuses the trial's fingerprints and merged event stream.  A unit
    of an older trial would simply be realized again: correct, only
    slower.

    With ``spec.profile_dir`` each unit's run is accumulated into the
    process profile, dumped as ``<profile_prefix>-<pid>.pstats`` after
    every unit so a crashed worker still leaves its latest snapshot.
    """

    def __init__(
        self,
        spec: "SweepSpec",
        spills: Optional[Dict[int, str]] = None,
        *,
        profile_prefix: str = "worker",
    ) -> None:
        self.spec = spec
        self.spills = spills or {}
        self.profile_prefix = profile_prefix
        self._trial = -1
        self._inputs: Optional[TrialArtifacts] = None

    def run(
        self, unit: _WorkUnit, *, on_error: Optional[str] = None
    ) -> Tuple[
        Optional[SimulationResult],
        Optional[str],
        Dict[str, float],
        Optional[str],
    ]:
        """Run one unit; ``(result, error, timing, run_key)``.

        *on_error* overrides the spec's policy (queue workers must never
        unwind, so they run ``"raise"`` sweeps as ``"skip"``).  *timing*
        carries ``setup_wall_s``: the trial realization this unit paid
        for, 0 when it reused the current trial's artifacts.
        """
        spec = self.spec
        trial, name = unit[0], unit[1]
        inputs = self._inputs
        setup_wall = 0.0
        if inputs is None or trial != self._trial:
            # Drop the previous trial before realizing this one, so at
            # most one trial's artifacts are alive per process.
            inputs = self._inputs = None
            setup_timer = Stopwatch()
            faults = (
                spec.faults(trial) if callable(spec.faults) else spec.faults
            )
            inputs = self._inputs = _build_trial_inputs(
                spec.trace_factory,
                spec.demand,
                spec.n_clients,
                (unit[2], unit[3], unit[4]),
                faults=faults,
                spill_path=self.spills.get(trial),
            )
            setup_timer.stop()
            setup_wall = setup_timer.wall
            self._trial = trial
        profiler = _process_profiler(spec.profile_dir)
        if profiler is not None:
            profiler.enable()
        try:
            result, error, timing, key = _execute_run(
                spec.protocols[name],
                inputs,
                spec.config,
                attempts_per_run=spec.attempts_per_run,
                on_error=on_error or spec.on_error,
                retry_backoff=spec.retry_backoff,
                max_backoff=spec.max_backoff,
                cache=spec.cache,
            )
        finally:
            if profiler is not None:
                profiler.disable()
                assert spec.profile_dir is not None
                profiler.dump_stats(
                    os.path.join(
                        spec.profile_dir,
                        f"{self.profile_prefix}-{os.getpid()}.pstats",
                    )
                )
        timing["setup_wall_s"] = setup_wall
        return result, error, timing, key


#: The pool workers' unit runner.  Set by :func:`_run_pool` immediately
#: before the pool forks and cleared afterwards; each child inherits
#: its own copy by fork, so the trace and protocol factories (typically
#: closures) never need to be pickled.
_POOL_RUNNER: Optional[_UnitRunner] = None


def _pool_run(
    unit: _WorkUnit,
) -> Tuple[
    int, str, Optional[SimulationResult], Optional[str], Dict[str, float]
]:
    """Execute one work unit inside a pooled worker process."""
    unit_runner = _POOL_RUNNER
    if unit_runner is None:  # pragma: no cover - defensive
        raise SimulationError(
            "pool runner missing; the pool must be created with the "
            "fork start method by _run_pool"
        )
    result, error, timing, _ = unit_runner.run(unit)
    return unit[0], unit[1], result, error, timing


class _SweepAccounting:
    """Per-unit bookkeeping shared by every executor.

    Executors report each finished unit through :meth:`record`; the
    parent owns the outcome maps, the checkpoint file, live progress,
    the cache hit/miss counters, and the failure-text byte bound — so
    all of those behave identically whichever backend ran the unit.
    """

    def __init__(
        self,
        *,
        checkpoint: Optional[ComparisonCheckpoint],
        reporter: Optional[_ProgressReporter],
        cache_counts: Dict[str, int],
        attempts_per_run: int,
    ) -> None:
        self.results_map: Dict[Tuple[int, str], SimulationResult] = {}
        self.failures_map: Dict[Tuple[int, str], TrialFailure] = {}
        self.telemetry_map: Dict[Tuple[int, str], RunTelemetry] = {}
        self.checkpoint = checkpoint
        self.reporter = reporter
        self.cache_counts = cache_counts
        self.attempts_per_run = attempts_per_run

    def record(
        self,
        trial: int,
        name: str,
        result: Optional[SimulationResult],
        error: Optional[str],
        timing: Dict[str, float],
        *,
        worker: Optional[str] = None,
        attempts: Optional[int] = None,
    ) -> None:
        """One finished ``(trial, protocol)`` unit, success or failure.

        *worker*/*attempts* are distributed-backend attribution: which
        worker ran the unit and how many claims its failure consumed.
        """
        _count_cache_marker(self.cache_counts, timing.get("cache"))
        telemetry = RunTelemetry(
            trial=trial,
            protocol=name,
            status=_run_status(result, timing),
            wall_s=timing.get("wall_s", 0.0),
            cpu_s=timing.get("cpu_s", 0.0),
            setup_wall_s=timing.get("setup_wall_s", 0.0),
            attempts=int(timing.get("attempts", 0)),
            gain_rate=result.gain_rate if result is not None else None,
            worker=worker,
        )
        self.telemetry_map[(trial, name)] = telemetry
        if self.reporter is not None:
            self.reporter.report(telemetry)
        if result is None:
            self.failures_map[(trial, name)] = TrialFailure(
                trial=trial,
                protocol=name,
                error=truncate_error_text(error or "unknown error"),
                attempts=(
                    attempts
                    if attempts is not None
                    else self.attempts_per_run
                ),
            )
            return
        self.results_map[(trial, name)] = result
        if self.checkpoint is not None:
            self.checkpoint.record(trial, name, result)


def _run_pool(
    units: Sequence[_WorkUnit],
    spec: "SweepSpec",
    record: Callable[..., None],
    *,
    n_workers: int,
) -> None:
    """Fan *units* out over an *n_workers* fork pool.

    Workers inherit one :class:`_UnitRunner` through fork; only the
    small work-unit tuples and the completed
    :class:`~repro.sim.metrics.SimulationResult` objects cross the
    process boundary.  Units are submitted trial-major and the pool
    dequeues them FIFO, so no worker revisits an older trial.
    Completed runs are reported to *record* by the parent as they
    arrive, so checkpointing and the ``on_error`` policies compose
    exactly like the serial walk.
    """
    global _POOL_RUNNER
    mp_context = multiprocessing.get_context("fork")
    _POOL_RUNNER = _UnitRunner(spec, spec.trial_spills)
    try:
        with ProcessPoolExecutor(
            max_workers=n_workers, mp_context=mp_context
        ) as pool:
            futures = {pool.submit(_pool_run, unit): unit for unit in units}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_EXCEPTION)
                for future in done:
                    # Worker exceptions only escape _execute_run under
                    # on_error="raise"; propagate the first one observed
                    # and drop the rest of the sweep, like the serial
                    # path aborting mid-walk.
                    try:
                        trial, name, result, error, timing = future.result()
                    except BaseException:
                        for pending in remaining:
                            pending.cancel()
                        raise
                    record(trial, name, result, error, timing)
    finally:
        _POOL_RUNNER = None


def run_comparison(
    *,
    trace_factory: Callable[[int], ContactTrace],
    demand: DemandModel,
    config: SimulationConfig,
    protocols: Dict[str, ProtocolFactory],
    n_trials: int,
    base_seed: int = 0,
    baseline: str = "OPT",
    n_clients: Optional[int] = None,
    faults: Optional[FaultsLike] = None,
    on_error: str = "raise",
    max_retries: int = 2,
    retry_backoff: float = 0.1,
    max_backoff: float = 5.0,
    checkpoint_path: Optional[PathLike] = None,
    n_workers: Optional[int] = None,
    progress: Optional[ProgressLike] = None,
    profile_dir: Optional[PathLike] = None,
    run_cache: RunCacheLike = None,
    executor: "ExecutorLike" = None,
    trial_spill_dir: Optional[PathLike] = None,
) -> ComparisonResult:
    """Run every protocol on *n_trials* shared trace/request realizations.

    Parameters
    ----------
    trace_factory:
        Maps a trial seed to a contact trace (synthetic generators close
        over their configuration here).
    protocols:
        Display name -> factory; the factory receives the trial's trace
        and requests so trace-dependent baselines (heterogeneous OPT) can
        be built per trial.
    baseline:
        The protocol whose mean gain rate anchors normalized losses.
    faults:
        Optional fault injection: a :class:`~repro.faults.FaultSchedule`
        applied to every trial, or a callable ``trial -> FaultSchedule``
        for per-trial variation.  Every protocol within a trial sees the
        same faults (the comparison stays paired).
    on_error:
        ``"raise"`` propagates the first failure (historical behavior);
        ``"skip"`` records it and continues; ``"retry"`` re-attempts up
        to *max_retries* times with exponential backoff (*retry_backoff*
        doubling per attempt, capped at *max_backoff* seconds), then
        records the failure and continues.
    checkpoint_path:
        When given, every completed run is persisted there as JSON and
        already-completed runs are loaded instead of re-simulated, so an
        interrupted sweep resumes with identical statistics.
    n_workers:
        ``None``/``1`` runs serially (the historical behavior).  With
        ``k > 1`` the pending ``(trial, protocol)`` runs execute on a
        fork pool of up to ``k`` processes, capped at the CPU count and
        the number of pending runs (one effective worker runs
        in-process); per-run seeds come from the identical seed walk,
        so the resulting statistics are bit-identical to a serial
        sweep.  Requires a platform with the ``fork`` start method
        (falls back to serial with a warning otherwise).  With
        ``on_error="raise"`` the first observed worker failure
        propagates, which — unlike the serial path — is not
        necessarily the earliest failing trial.
    progress:
        ``True`` logs one structured line per completed run (and a
        final summary) through ``repro.obs.log``; a callable receives a
        dict per run with running counts, elapsed time, and the run's
        :class:`RunTelemetry` fields.  Reporting fires in completion
        order; the deterministic record is the returned ``telemetry``.
    profile_dir:
        When given, each executing process accumulates a cProfile of
        its simulate stages and dumps ``worker-<pid>.pstats`` (or
        ``serial-<pid>.pstats``) there after every unit.  Inspect with
        ``python -m pstats``.
    run_cache:
        Content-addressed result reuse (see :mod:`repro.simcache`).
        ``None`` defers to the ``REPRO_SIM_CACHE`` environment variable
        (unset disables); ``True``/``False`` force it on/off; a path or
        :class:`~repro.simcache.SimulationRunCache` enables it at that
        root.  Cache hits return the stored result without simulating,
        are reported with ``status="cached"`` (like checkpoint resume),
        and hit/miss counters land in the sweep manifest under
        ``"run_cache"``.
    executor:
        Which backend runs the pending units (see :mod:`repro.dist`).
        ``None`` (default) consults the ``REPRO_SWEEP_EXECUTOR``
        environment variable, then falls back to the ``n_workers``
        selection (serial for ``None``/``1``, the fork pool otherwise).
        ``"serial"``, ``"process"``, or ``"workqueue"`` pick a backend
        by name (``n_workers`` sizes it; the pool applies the same
        caps whichever way it was selected); a
        :class:`~repro.dist.SweepExecutor` instance is used as-is.
        The fault-tolerant ``"workqueue"`` backend coordinates
        independent worker processes through an on-disk queue with
        leases, crash-absorbing supervision, and poison-unit
        quarantine; all backends produce bit-identical statistics.
        Under ``on_error="raise"`` the work-queue backend raises
        :class:`~repro.errors.SimulationError` (the original exception
        type does not cross the process boundary).
    trial_spill_dir:
        Zero-copy trial handoff for parallel and distributed sweeps:
        the parent realizes each pending trial's trace once, spills it
        to ``<dir>/trial-<k>.ctb``, and workers memory-map that copy
        (sharing the page cache) instead of each regenerating it from
        the trial seed.  With a run cache the trace fingerprint is
        computed once at spill time and travels in the spill header,
        so workers never re-hash.  Spilled traces take the engine's
        streamed mode — bit-identical to eager.  The directory is
        created if needed; files are left behind for inspection and
        reuse.  Ignored by the in-process walk (the serial executor, or
        a pool capped to one worker), which realizes each trial exactly
        once anyway.
    """
    if n_trials <= 0:
        raise ConfigurationError(f"n_trials must be > 0, got {n_trials}")
    if baseline not in protocols:
        raise ConfigurationError(
            f"baseline {baseline!r} missing from protocols {sorted(protocols)}"
        )
    if on_error not in ("raise", "skip", "retry"):
        raise ConfigurationError(
            f"on_error must be 'raise', 'skip', or 'retry', got {on_error!r}"
        )
    if max_retries < 0:
        raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
    if retry_backoff < 0 or max_backoff < 0:
        raise ConfigurationError("backoff delays must be >= 0")
    if n_workers is not None and n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    profile_path: Optional[str] = None
    if profile_dir is not None:
        profile_path = os.fspath(profile_dir)
        os.makedirs(profile_path, exist_ok=True)
    cache = resolve_run_cache(run_cache)
    cache_counts: Dict[str, int] = {"hits": 0, "misses": 0, "uncacheable": 0}
    sweep_timer = Stopwatch()

    checkpoint = (
        ComparisonCheckpoint.open(
            checkpoint_path,
            base_seed=base_seed,
            n_trials=n_trials,
            protocols=list(protocols),
        )
        if checkpoint_path is not None
        else None
    )
    attempts_per_run = 1 + (max_retries if on_error == "retry" else 0)
    trial_seeds = _derive_trial_seeds(base_seed, n_trials)

    # The dist import happens lazily: repro.dist builds on this module,
    # and by execution time this module is fully initialized.
    from ..dist import executors as dist_executors

    executor_obj = dist_executors.resolve_executor(
        executor, n_workers=n_workers
    )

    #: (trial, protocol) -> completed result / failure / telemetry,
    #: assembled into trial-major order at the end (identical to the
    #: serial walk) by the executor-agnostic accounting.
    accounting = _SweepAccounting(
        checkpoint=checkpoint,
        reporter=None,
        cache_counts=cache_counts,
        attempts_per_run=attempts_per_run,
    )
    if checkpoint is not None:
        for trial in range(n_trials):
            for name in protocols:
                if checkpoint.has(trial, name):
                    result = checkpoint.get(trial, name)
                    accounting.results_map[(trial, name)] = result
                    accounting.telemetry_map[(trial, name)] = RunTelemetry(
                        trial=trial,
                        protocol=name,
                        status="cached",
                        gain_rate=result.gain_rate,
                    )
    pending_units: List[_WorkUnit] = [
        (trial, name, *trial_seeds[trial])
        for trial in range(n_trials)
        for name in protocols
        if (trial, name) not in accounting.results_map
    ]
    reporter = (
        _ProgressReporter(len(pending_units), progress)
        if progress
        else None
    )
    accounting.reporter = reporter

    # Zero-copy trial handoff: realize each pending trial's trace once
    # in the parent, spill it to .ctb, and let every worker memory-map
    # that copy.  The in-process walk realizes each trial exactly once
    # anyway, so it never reads spills (and keeps the faster eager
    # mode).
    trial_spills: Optional[Dict[int, str]] = None
    if (
        trial_spill_dir is not None
        and pending_units
        and not isinstance(executor_obj, dist_executors.SerialExecutor)
    ):
        spill_root = os.fspath(trial_spill_dir)
        os.makedirs(spill_root, exist_ok=True)
        spill_timer = Stopwatch()
        trial_spills = {}
        for trial in sorted({unit[0] for unit in pending_units}):
            spill_trace = trace_factory(trial_seeds[trial][0])
            trial_spills[trial] = spill_trial_trace(
                spill_trace,
                os.path.join(spill_root, f"trial-{trial}.ctb"),
                trace_fingerprint=(
                    fingerprint_trace(spill_trace)
                    if cache is not None
                    else None
                ),
            )
            del spill_trace
        spill_timer.stop()
        get_logger("repro.experiments.sweep").info(
            "spilled trial traces",
            trials=len(trial_spills),
            dir=spill_root,
            wall_s=f"{spill_timer.wall:.2f}",
        )

    executor_extras: Optional[Dict[str, Any]] = None
    if pending_units:
        spec = dist_executors.SweepSpec(
            trace_factory=trace_factory,
            demand=demand,
            config=config,
            protocols=dict(protocols),
            n_clients=n_clients,
            faults=faults,
            on_error=on_error,
            attempts_per_run=attempts_per_run,
            retry_backoff=retry_backoff,
            max_backoff=max_backoff,
            profile_dir=profile_path,
            cache=cache,
            base_seed=base_seed,
            n_trials=n_trials,
            trial_spills=trial_spills or None,
        )
        executor_extras = executor_obj.execute(
            pending_units, spec, accounting.record
        )

    results_map = accounting.results_map
    failures_map = accounting.failures_map
    telemetry_map = accounting.telemetry_map
    collected: Dict[str, List[SimulationResult]] = {
        name: [] for name in protocols
    }
    failures: List[TrialFailure] = []
    telemetry_records: List[RunTelemetry] = []
    for trial in range(n_trials):
        for name in protocols:
            key = (trial, name)
            if key in telemetry_map:
                telemetry_records.append(telemetry_map[key])
            if key in results_map:
                collected[name].append(results_map[key])
            elif key in failures_map:
                failures.append(failures_map[key])
    if reporter is not None:
        reporter.finish(len(failures))
    if not any(collected.values()):
        raise SimulationError(
            f"every run failed across {n_trials} trial(s); "
            f"first failure: {failures[0].protocol}: {failures[0].error}"
        )
    stats = {
        name: AlgorithmStats(
            name=name,
            gain_rates=np.array([r.gain_rate for r in results]),
            results=tuple(results),
        )
        for name, results in collected.items()
        if results
    }
    sweep_timer.stop()
    sweep_manifest: Dict[str, Any] = {
        "config_fingerprint": config.fingerprint(),
        "base_seed": base_seed,
        "n_trials": n_trials,
        "protocols": sorted(protocols),
        "executor": executor_obj.name or type(executor_obj).__name__,
        "n_workers": getattr(executor_obj, "n_workers", 1),
        "n_spilled_trials": len(trial_spills) if trial_spills else 0,
        "n_runs_executed": len(pending_units),
        "n_failures": len(failures),
        "wall_s": sweep_timer.wall,
        "cpu_s": sweep_timer.cpu,
        "environment": environment_provenance(),
    }
    metrics_reg = obs_metrics.enabled_registry()
    if metrics_reg is not None:
        sweep_manifest["metrics"] = metrics_reg.snapshot()
    if cache is not None:
        sweep_manifest["run_cache"] = {
            "root": cache.root,
            "hits": cache_counts["hits"],
            "misses": cache_counts["misses"],
            "uncacheable": cache_counts["uncacheable"],
        }
    if executor_extras:
        sweep_manifest.update(executor_extras)
    if checkpoint is not None:
        checkpoint.set_manifest(sweep_manifest)
    return ComparisonResult(
        stats=stats,
        baseline=baseline,
        failures=tuple(failures),
        n_trials=n_trials,
        telemetry=tuple(telemetry_records),
        manifest=sweep_manifest,
    )
