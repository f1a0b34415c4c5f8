"""The pluggable sweep-executor seam.

:func:`repro.experiments.run_comparison` delegates the execution of its
pending ``(trial, protocol)`` units to a :class:`SweepExecutor`:

* :class:`SerialExecutor` — the historical in-process walk;
* :class:`ProcessPoolExecutor` — a single-host fork pool (the
  ``n_workers`` fast path), capped at the CPU count and the pending
  units;
* :class:`~repro.dist.supervisor.WorkQueueExecutor` — independent
  worker processes coordinating through an on-disk
  :class:`~repro.dist.queue.WorkQueue` with leases, crash-absorbing
  supervision, and poison-unit quarantine.

Whatever the executor, crash pattern, or retry count, the statistics a
sweep reports are bit-identical: executors only decide *where and when*
units run, never *what* they compute — per-unit seeds come from the
same :class:`numpy.random.SeedSequence` walk, and all accounting is
assembled by the parent in deterministic trial-major order.  Every
executor runs its units through the same per-process unit runner
(:class:`repro.experiments.runner._UnitRunner`), so trial realization,
fault resolution, retries, caching and profiling behave identically.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import warnings
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

from ..errors import ConfigurationError
from ..obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..contacts import ContactTrace
    from ..demand import DemandModel
    from ..experiments.runner import FaultsLike, ProtocolFactory
    from ..sim import SimulationConfig
    from ..simcache import SimulationRunCache

__all__ = [
    "ExecutorLike",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "SweepExecutor",
    "SweepSpec",
    "resolve_executor",
]

#: Environment variable selecting the default executor by name
#: (``serial`` / ``process`` / ``workqueue``); unset selects by
#: ``n_workers``.
ENV_VAR = "REPRO_SWEEP_EXECUTOR"

#: One (trial, protocol, trace seed, request seed, sim seed) work unit.
WorkUnit = Tuple[int, str, int, int, int]


@dataclass
class SweepSpec:
    """Everything an executor (or a remote worker) needs to run units.

    This is the full execution recipe of one sweep *minus* the unit
    list: factories, config, failure policy, cache, and the sweep's
    identity (seed walk + trial count + protocol names), which the
    work-queue backend persists so a resumed or multi-host sweep can
    refuse mismatched state.  *trial_spills* maps a trial to the
    parent's spilled ``.ctb`` trace (see ``run_comparison``'s
    ``trial_spill_dir``); ``None`` when nothing was spilled.
    """

    trace_factory: Callable[[int], "ContactTrace"]
    demand: "DemandModel"
    config: "SimulationConfig"
    protocols: Dict[str, "ProtocolFactory"]
    n_clients: Optional[int]
    faults: Optional["FaultsLike"]
    on_error: str
    attempts_per_run: int
    retry_backoff: float
    max_backoff: float
    profile_dir: Optional[str]
    cache: Optional["SimulationRunCache"]
    base_seed: int
    n_trials: int
    trial_spills: Optional[Dict[int, str]] = None

    def identity(self) -> Dict[str, Any]:
        """What makes two sweeps "the same sweep" for queue reuse."""
        return {
            "base_seed": int(self.base_seed),
            "n_trials": int(self.n_trials),
            "protocols": sorted(self.protocols),
            "config_fingerprint": self.config.fingerprint(),
        }


class SweepExecutor(abc.ABC):
    """Strategy for executing a sweep's pending work units.

    ``execute`` runs every unit, reporting each completed or failed one
    through ``record`` — a callback with signature
    ``record(trial, protocol, result, error, timing)`` owned by the
    parent (checkpointing, telemetry, progress).  The optional return
    value is merged into the sweep manifest (the pool reports its
    effective worker count, the work-queue backend worker attribution
    and lifecycle counts).
    """

    #: Short name recorded in sweep manifests.
    name: str = ""

    @abc.abstractmethod
    def execute(
        self,
        units: Sequence[WorkUnit],
        spec: SweepSpec,
        record: Callable[..., None],
    ) -> Optional[Dict[str, Any]]:
        ...


class SerialExecutor(SweepExecutor):
    """Run every unit in-process, in order (the historical walk)."""

    name = "serial"

    def execute(
        self,
        units: Sequence[WorkUnit],
        spec: SweepSpec,
        record: Callable[..., None],
    ) -> Optional[Dict[str, Any]]:
        from ..experiments import runner

        unit_runner = runner._UnitRunner(spec, profile_prefix="serial")
        for unit in units:
            result, error, timing, _ = unit_runner.run(unit)
            record(unit[0], unit[1], result, error, timing)
        return None


class ProcessPoolExecutor(SweepExecutor):
    """Fan units over a single-host fork pool (bit-identical to serial).

    This is the ``repro.dist`` executor wrapping the runner's pool path,
    not :class:`concurrent.futures.ProcessPoolExecutor` (which it uses
    underneath, with an explicitly pinned ``fork`` start method).

    The pool is capped at the CPU count and the number of pending
    units: more workers than either only add fork and IPC overhead
    (``n_workers=4`` on one CPU measured slower than serial).  At one
    effective worker, or without the ``fork`` start method, the units
    run in-process instead.  The manifest extras report what ran.
    """

    name = "process"

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = int(n_workers)

    def execute(
        self,
        units: Sequence[WorkUnit],
        spec: SweepSpec,
        record: Callable[..., None],
    ) -> Optional[Dict[str, Any]]:
        from ..experiments import runner

        cpu_count = os.cpu_count() or 1
        workers = min(self.n_workers, cpu_count, max(len(units), 1))
        if workers < self.n_workers:
            get_logger("repro.experiments.sweep").info(
                "capping sweep workers",
                requested=self.n_workers,
                effective=workers,
                cpu_count=cpu_count,
                pending_units=len(units),
            )
        forkable = "fork" in multiprocessing.get_all_start_methods()
        if workers > 1 and not forkable:
            warnings.warn(
                "the process executor needs the 'fork' start method; "
                "running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1
        if workers <= 1:
            SerialExecutor().execute(units, spec, record)
            return {"executor": SerialExecutor.name, "n_workers": 1}
        runner._run_pool(units, spec, record, n_workers=workers)
        return {"n_workers": workers}


#: What ``run_comparison(executor=...)`` accepts: an executor instance,
#: a name (``"serial"`` / ``"process"`` / ``"workqueue"``), or ``None``
#: (defer to :data:`ENV_VAR`, then select by ``n_workers``).
ExecutorLike = Union[None, str, SweepExecutor]


def resolve_executor(
    setting: ExecutorLike,
    *,
    n_workers: Optional[int] = None,
) -> SweepExecutor:
    """Resolve an ``executor=`` argument to an executor instance.

    ``None`` consults :data:`ENV_VAR`; with the variable unset or empty
    it selects by *n_workers*: serial for ``None``/``1``, an
    ``n_workers`` fork pool otherwise (which caps itself at the CPU
    count and the pending units, however it was selected).
    """
    if setting is None:
        pooled = n_workers is not None and n_workers > 1
        setting = os.environ.get(ENV_VAR, "").strip() or (
            "process" if pooled else "serial"
        )
    if isinstance(setting, SweepExecutor):
        return setting
    if not isinstance(setting, str):
        raise ConfigurationError(
            f"executor must be None, a name, or a SweepExecutor; "
            f"got {setting!r}"
        )
    name = setting.strip().lower()
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        # repro-lint: ignore[RPL008] our executor wrapper, not a raw pool
        return ProcessPoolExecutor(max(n_workers or 1, 1))
    if name == "workqueue":
        from .supervisor import WorkQueueExecutor

        return WorkQueueExecutor(n_workers=max(n_workers or 2, 1))
    raise ConfigurationError(
        f"unknown executor {setting!r}; expected 'serial', 'process', "
        "or 'workqueue'"
    )


def make_unit_records(
    units: Sequence[WorkUnit], protocol_order: Sequence[str]
) -> List[Any]:
    """Map runner work units to :class:`~repro.dist.queue.UnitRecord`.

    Unit ids are derived from the trial index and the protocol's
    position in the sweep's insertion order, so ids are stable across
    resumes regardless of which units are still pending.
    """
    from .queue import UnitRecord, unit_id

    index = {name: k for k, name in enumerate(protocol_order)}
    return [
        UnitRecord(
            unit=unit_id(trial, index[name]),
            trial=trial,
            protocol=name,
            seeds=(trace_seed, request_seed, sim_seed),
        )
        for trial, name, trace_seed, request_seed, sim_seed in units
    ]
