"""Shared experiment machinery: durations, seeded sweeps, the executor.

The power experiments compare schedulers on identical job streams: every
(scheduler, seed) pair draws execution times from the same seeded generator,
so power differences are attributable to the policy alone.

Campaigns are expressed as lists of :class:`RunSpec` cells — one
self-contained, picklable simulation each — executed by :func:`run_many`.
Because every cell carries its own seed and builds its own scheduler and
fault layer, the result list is a pure function of the spec list: running
with ``jobs=4`` worker processes returns exactly what the serial path
returns, in the same order.
"""

from __future__ import annotations

import math
import os
import pickle
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError, ExecutionError, error_kind
from ..faults.layer import FaultLayer
from ..obs.registry import current
from ..power.processor import ProcessorSpec
from ..sim.engine import simulate
from ..sim.metrics import SimulationResult
from ..tasks.generation import ExecutionTimeModel, GaussianModel
from ..tasks.task import TaskSet
from .checkpoint import CheckpointJournal, spec_fingerprint

#: Lower bound on a power-measurement horizon: short hyperperiods (CNC's is
#: 9.6 ms) are repeated until at least this much time is simulated, so sleep
#: and variation statistics settle.
MIN_DURATION = 1_000_000.0
#: Upper bound keeping huge hyperperiods (Avionics: 118 s) tractable.
MAX_DURATION = 10_000_000.0


def measurement_duration(
    taskset: TaskSet,
    min_duration: float = MIN_DURATION,
    max_duration: float = MAX_DURATION,
) -> float:
    """Simulation horizon for power measurements on *taskset*.

    A whole number of hyperperiods at least *min_duration* long, capped at
    *max_duration* (a capped horizon is no longer a whole hyperperiod;
    acceptable for averaged power, and noted in EXPERIMENTS.md).
    """
    hyper = taskset.hyperperiod
    if hyper >= max_duration:
        return max_duration
    repeats = max(1, math.ceil(min_duration / hyper))
    return min(repeats * hyper, max_duration)


@dataclass(frozen=True)
class RunSpec:
    """One self-contained simulation cell of a campaign.

    *scheduler* is either a registry name (preferred — always picklable)
    or a zero-argument factory; a fresh policy object is built inside the
    executing process, so per-run scheduler state never leaks between
    cells.  *faults*, when present, is likewise either a ready
    :class:`~repro.faults.layer.FaultLayer` or a zero-argument factory
    for one.

    *execution* selects the kernel path: ``"exact"`` (default) runs the
    event loop to the horizon; ``"fast"`` goes through
    :func:`~repro.sim.fastpath.simulate_fast` with ``exact=False`` —
    hyperperiod fast-forwarding under the audited float tolerance, with
    automatic exact fallback for ineligible or non-converging cells.
    Either way ``result.metadata["execution_path"]`` records which path
    actually produced the cell, and the checkpoint fingerprint includes
    *execution*, so one campaign journal never mixes paths.
    """

    taskset: TaskSet
    scheduler: Union[str, Callable[[], Any]]
    seed: int = 0
    spec: Optional[ProcessorSpec] = None
    execution_model: Optional[ExecutionTimeModel] = None
    duration: Optional[float] = None
    on_miss: str = "record"
    scheduler_overhead: float = 0.0
    faults: Union[None, FaultLayer, Callable[[], FaultLayer]] = None
    record_trace: bool = False
    execution: str = "exact"
    extra: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.execution not in ("exact", "fast"):
            raise ConfigurationError(
                f"execution must be 'exact' or 'fast', got {self.execution!r}"
            )

    def build_scheduler(self) -> Any:
        """Instantiate this cell's scheduler."""
        if isinstance(self.scheduler, str):
            # Imported lazily: the registry pulls in every policy module.
            from ..schedulers.registry import make_scheduler

            return make_scheduler(self.scheduler)
        return self.scheduler()

    def run(self) -> SimulationResult:
        """Execute this cell and return its result."""
        faults = self.faults
        if faults is not None and not isinstance(faults, FaultLayer):
            faults = faults()
        kwargs = dict(
            spec=self.spec,
            execution_model=self.execution_model,
            duration=self.duration,
            seed=self.seed,
            on_miss=self.on_miss,
            scheduler_overhead=self.scheduler_overhead,
            faults=faults,
            record_trace=self.record_trace,
        )
        if self.execution == "fast":
            from ..sim.fastpath import simulate_fast

            return simulate_fast(
                self.taskset, self.build_scheduler(), exact=False, **kwargs
            )
        result = simulate(self.taskset, self.build_scheduler(), **kwargs)
        result.metadata["execution_path"] = "exact"
        return result


@dataclass
class CellFailure:
    """Structured, picklable record of one campaign cell that failed.

    Returned in place of a :class:`~repro.sim.metrics.SimulationResult`
    when ``run_many(..., failures="contain")`` could not produce a
    result for a cell — either the cell itself raised, or its worker
    process kept dying past the retry budget.  Carries everything
    needed to triage without re-running: the spec's identity, the
    :data:`~repro.errors.ERROR_KINDS` classification, and the original
    traceback.  ``metadata`` exists so campaign provenance stamping
    treats failures like any other result.
    """

    index: int
    taskset: str
    scheduler: str
    seed: int
    error_kind: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Always ``True`` — the isinstance-free way to filter results."""
        return True

    @classmethod
    def from_exception(
        cls,
        spec: RunSpec,
        exc: BaseException,
        index: int = -1,
        attempts: int = 1,
    ) -> "CellFailure":
        """Build a failure record for *spec* from a raised exception."""
        scheduler = (
            spec.scheduler
            if isinstance(spec.scheduler, str)
            else getattr(spec.scheduler, "__name__", type(spec.scheduler).__name__)
        )
        return cls(
            index=index,
            taskset=spec.taskset.name,
            scheduler=scheduler,
            seed=spec.seed,
            error_kind=error_kind(exc),
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
            attempts=attempts,
            metadata={"cell_wall_s": 0.0},
        )

    @classmethod
    def from_worker_loss(
        cls, spec: RunSpec, index: int, attempts: int
    ) -> "CellFailure":
        """Build a failure record for a cell whose workers kept dying."""
        scheduler = (
            spec.scheduler
            if isinstance(spec.scheduler, str)
            else getattr(spec.scheduler, "__name__", type(spec.scheduler).__name__)
        )
        return cls(
            index=index,
            taskset=spec.taskset.name,
            scheduler=scheduler,
            seed=spec.seed,
            error_kind="internal",
            error_type="BrokenProcessPool",
            message=(
                f"worker process died {attempts} time(s) running this cell; "
                "retry budget exhausted"
            ),
            attempts=attempts,
            metadata={"cell_wall_s": 0.0},
        )


def _run_spec(spec: RunSpec) -> SimulationResult:
    """Module-level trampoline so worker processes can unpickle the call.

    Times the cell where it actually ran (inside the worker, for pooled
    campaigns) so ``metadata["cell_wall_s"]`` survives the pickle back.
    Cells carrying an infra-chaos plan (``extra["chaos"]``) have it
    applied here — inside the executing process — so kill/slow faults
    hit the worker, not the supervisor.
    """
    t0 = perf_counter()
    chaos = spec.extra.get("chaos") if spec.extra else None
    if chaos is not None:
        from ..faults.chaos import apply_cell_chaos

        apply_cell_chaos(chaos)
    result = spec.run()
    result.metadata["cell_wall_s"] = perf_counter() - t0
    return result


def _run_spec_contained(spec: RunSpec) -> Union[SimulationResult, CellFailure]:
    """Worker trampoline for ``failures="contain"`` campaigns.

    A raising cell comes back as a picklable :class:`CellFailure`
    instead of poisoning the pool's result stream.
    """
    try:
        return _run_spec(spec)
    except Exception as exc:  # noqa: BLE001 - the containment contract
        return CellFailure.from_exception(spec, exc)


def _run_spec_batch(specs: List[RunSpec]) -> List[SimulationResult]:
    """Batch trampoline: run a chunk of cells in one worker round-trip.

    Amortises pickle + IPC overhead over ``chunk`` cells — the win that
    makes short fast-path cells worth pooling at all.  Results come back
    aligned with *specs*.
    """
    return [_run_spec(spec) for spec in specs]


def _run_spec_batch_contained(
    specs: List[RunSpec],
) -> List[Union[SimulationResult, CellFailure]]:
    """Batch trampoline for ``failures="contain"`` campaigns."""
    return [_run_spec_contained(spec) for spec in specs]


def _chunked(indices: Sequence[int], chunk: int) -> List[List[int]]:
    """Split *indices* into dispatch groups of at most *chunk* cells."""
    return [
        list(indices[start:start + chunk])
        for start in range(0, len(indices), chunk)
    ]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve a *jobs* knob to a concrete worker count.

    One convention shared by :func:`run_many`, the service broker, and
    the CLI ``--jobs`` flags: ``None`` and ``0`` both mean *auto* — one
    worker per CPU — while any positive integer is taken literally
    (still clamped to the CPU count by :func:`run_many`, where a wider
    pool is pure overhead).  Anything else — negative counts, floats,
    bools — is a configuration error, not a silent serial fallback.
    """
    if jobs is None:
        return os.cpu_count() or 1
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigurationError(
            f"jobs must be an integer >= 0 or None, got {jobs!r}"
        )
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


class _PoolUnavailable(Exception):
    """Internal: process pooling does not work here; run serially."""


def _commit_result(
    results: List[Any],
    index: int,
    result: Union[SimulationResult, CellFailure],
    journal: Optional[CheckpointJournal],
    fingerprints: Optional[List[Optional[str]]],
    progress: Optional[Callable[[int, Any], None]] = None,
) -> None:
    """Store one finished cell and journal it if checkpointing is on.

    The journal write happens *before* the checkpoint-provenance stamp,
    so the durable blob is the pristine result; only successful cells
    are journaled — failures must recompute on resume.  *progress*, when
    given, observes every commit — it runs supervisor-side (never in a
    worker process), after the result is durable.  Failures and journal
    writes are counted into the installed obs registry as they commit.
    """
    if isinstance(result, CellFailure):
        result.index = index
        current().count("runner.cell_failures")
    elif journal is not None and fingerprints is not None:
        fp = fingerprints[index]
        if fp is not None and journal.record(fp, result):
            current().count("runner.checkpoint_stored")
            result.metadata["checkpoint"] = "stored"
    results[index] = result
    if progress is not None:
        progress(index, result)


def _run_serial(
    spec_list: List[RunSpec],
    indices: Sequence[int],
    results: List[Any],
    failures: str,
    journal: Optional[CheckpointJournal],
    fingerprints: Optional[List[Optional[str]]],
    progress: Optional[Callable[[int, Any], None]] = None,
) -> None:
    """In-process execution of *indices*, committing each as it lands."""
    for i in indices:
        if failures == "contain":
            result = _run_spec_contained(spec_list[i])
            if isinstance(result, CellFailure):
                result.attempts = 1
        else:
            result = _run_spec(spec_list[i])
        _commit_result(results, i, result, journal, fingerprints, progress)


def _pool_generation(
    spec_list: List[RunSpec],
    indices: Sequence[int],
    workers: int,
    failures: str,
    results: List[Any],
    journal: Optional[CheckpointJournal],
    fingerprints: Optional[List[Optional[str]]],
    progress: Optional[Callable[[int, Any], None]] = None,
    chunk: int = 1,
) -> Tuple[bool, List[int], List[int]]:
    """Run *indices* through one process pool until done or it breaks.

    Dispatch is wave-based — at most *workers* groups of at most *chunk*
    cells are ever in flight — so when the pool breaks, the set of cells
    that might have killed it is bounded by ``workers * chunk``, not the
    campaign size.  Returns ``(broken, suspects, leftover)``: the cells
    in flight at the break (one of them is probably the killer) and the
    cells never submitted (innocent; re-dispatch freely).

    Raises :class:`_PoolUnavailable` when the pool cannot even be
    created (sandboxes without process spawning).
    """
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except (OSError, PermissionError, NotImplementedError):
        raise _PoolUnavailable() from None
    runner = _run_spec_batch if failures == "raise" else _run_spec_batch_contained
    queue: "deque[List[int]]" = deque(_chunked(indices, chunk))
    inflight: Dict[Any, List[int]] = {}
    broken = False
    suspects: List[int] = []
    try:
        while queue or inflight:
            while queue and len(inflight) < workers:
                group = queue.popleft()
                try:
                    inflight[
                        pool.submit(runner, [spec_list[i] for i in group])
                    ] = group
                except (BrokenProcessPool, RuntimeError):
                    queue.appendleft(group)
                    broken = True
                    break
            if broken or not inflight:
                break
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                group = inflight.pop(future)
                exc = future.exception()
                if exc is None:
                    for i, cell in zip(group, future.result()):
                        _commit_result(
                            results, i, cell, journal, fingerprints, progress
                        )
                elif isinstance(exc, BrokenProcessPool):
                    # Any cell in the dead worker's batch could be the
                    # killer; quarantine re-runs them one at a time.
                    broken = True
                    suspects.extend(group)
                else:
                    # failures="raise": the cell's own exception
                    # propagates exactly as the serial path would raise
                    # it (DeadlineMissError with on_miss="raise", ...).
                    raise exc
            if broken:
                break
        if broken and inflight:
            # The pool fails every remaining future promptly once broken;
            # a worker may still have completed a batch in the same race.
            wait(list(inflight))
            for future, group in inflight.items():
                if future.exception() is None and not future.cancelled():
                    for i, cell in zip(group, future.result()):
                        _commit_result(
                            results, i, cell, journal, fingerprints, progress
                        )
                else:
                    suspects.extend(group)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return broken, suspects, [i for group in queue for i in group]


def _run_pool_supervised(
    spec_list: List[RunSpec],
    indices: Sequence[int],
    workers: int,
    failures: str,
    retries: int,
    results: List[Any],
    journal: Optional[CheckpointJournal],
    fingerprints: Optional[List[Optional[str]]],
    progress: Optional[Callable[[int, Any], None]] = None,
    chunk: int = 1,
) -> None:
    """Supervise pool execution across worker deaths.

    When a pool breaks mid-run, completed cells keep their results; the
    cells that were in flight become *suspects* and are re-dispatched
    one at a time in single-worker quarantine pools — a killer cell then
    breaks only its own pool, so it is identified deterministically and
    charged against its retry budget, while innocent bystanders complete
    on their first quarantine run.  Everything never submitted continues
    in a fresh full-width pool.  Quarantine always runs one cell per
    batch regardless of *chunk* — attribution needs isolation.
    """
    attempts: Dict[int, int] = {i: 0 for i in indices}
    rebuilds = 0
    pending: List[int] = list(indices)
    quarantine: "deque[int]" = deque()
    completed_any = False
    while pending or quarantine:
        if quarantine:
            batch: List[int] = [quarantine.popleft()]
            width = 1
            batch_chunk = 1
        else:
            batch, pending = pending, []
            width = min(workers, len(batch))
            batch_chunk = chunk
        broken, suspects, leftover = _pool_generation(
            spec_list, batch, width, failures, results, journal,
            fingerprints, progress, batch_chunk,
        )
        pending.extend(leftover)
        completed_any = completed_any or any(
            results[i] is not None for i in batch
        )
        if not broken:
            continue
        if failures == "raise" and not completed_any and rebuilds == 0:
            # The very first pool died before finishing a single cell:
            # indistinguishable from an environment where process
            # pooling simply does not work, so preserve the historical
            # serial fallback instead of burning retry budgets.
            raise _PoolUnavailable()
        rebuilds += 1
        current().count("runner.pool_rebuilds")
        for i in suspects:
            attempts[i] += 1
            if attempts[i] <= retries:
                current().count("runner.cell_retries")
                quarantine.append(i)
            elif failures == "contain":
                _commit_result(
                    results,
                    i,
                    CellFailure.from_worker_loss(spec_list[i], i, attempts[i]),
                    journal,
                    fingerprints,
                    progress,
                )
            else:
                raise ExecutionError(
                    f"campaign cell {i} "
                    f"({spec_list[i].taskset.name}/{spec_list[i].scheduler!r}"
                    f"/seed={spec_list[i].seed}) killed its worker process "
                    f"{attempts[i]} time(s); retry budget ({retries}) exhausted"
                )


def run_many(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = 1,
    *,
    failures: str = "raise",
    retries: int = 2,
    checkpoint: Union[None, str, Path] = None,
    progress: Optional[Callable[[int, Any], None]] = None,
    chunk: Optional[int] = None,
) -> List[Union[SimulationResult, CellFailure]]:
    """Execute a campaign of :class:`RunSpec` cells, optionally in parallel.

    Results come back in spec order.  With ``jobs=1`` (the default) the
    cells run serially in this process; with ``jobs`` > 1 they run under
    a supervised process pool; ``jobs=None`` and ``jobs=0`` both mean
    *auto* — one worker per CPU (:func:`resolve_jobs`).  Each cell is
    seeded and self-contained, so the returned results are identical
    either way — parallelism changes wall time, never output.

    ``failures`` selects the containment policy.  The default
    ``"raise"`` propagates the first cell exception (the historical
    behaviour — ``on_miss="raise"`` campaigns still raise).  With
    ``"contain"``, a raising cell yields a structured, picklable
    :class:`CellFailure` in its slot and its neighbours keep running; a
    worker process dying mid-campaign no longer aborts the run either —
    the pool is rebuilt and only incomplete cells are re-dispatched,
    each at most ``retries`` extra times before it is given up as a
    :class:`CellFailure` (or, under ``"raise"``, an
    :class:`~repro.errors.ExecutionError`).

    ``checkpoint`` names a journal directory: completed cells are
    appended durably as they land (keyed by
    :func:`~repro.experiments.checkpoint.spec_fingerprint`), and a rerun
    pointed at the same directory resumes — journaled cells are restored
    (``metadata["checkpoint"] == "hit"``) instead of recomputed.

    ``progress``, when given, is called as ``progress(index, result)``
    for every cell as it finishes — including checkpoint restores and
    contained :class:`CellFailure` cells — always in *this* process (the
    supervisor side), in completion order, after the result is committed.
    Live observers (the service's campaign streaming) hang off this hook.

    ``chunk``, when given, batches that many cells into each worker
    round-trip instead of one — amortising pickle/IPC overhead, which
    dominates once fast-path cells finish in milliseconds.  Chunking
    never changes results (each cell is still seeded and independent),
    only dispatch granularity; worker-death suspects grow to at most one
    chunk per worker, and quarantine re-runs stay single-cell.

    The serial path is also the fallback: spec lists that cannot be
    pickled (e.g. closure-based scheduler factories) and environments
    where worker processes cannot start both degrade to in-process
    execution rather than failing.  The worker count is clamped to the
    machine's CPU count — on a single core a process pool is pure
    overhead, so the campaign runs in-process instead.

    Every returned result's ``metadata`` records how the campaign
    actually executed — ``requested_jobs`` (the knob as passed),
    ``resolved_jobs`` (after auto/CPU clamping), ``workers`` (pool size
    actually used), ``executor`` (which path ran), and ``cell_wall_s``
    — and the same numbers are gauged into the thread-locally installed
    obs registry, so dumped campaign JSON is self-describing.
    """
    spec_list = list(specs)
    if failures not in ("raise", "contain"):
        raise ConfigurationError(
            f"failures must be 'raise' or 'contain', got {failures!r}"
        )
    if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
        raise ConfigurationError(f"retries must be an integer >= 0, got {retries!r}")
    if chunk is not None and (
        isinstance(chunk, bool) or not isinstance(chunk, int) or chunk < 1
    ):
        raise ConfigurationError(
            f"chunk must be an integer >= 1 or None, got {chunk!r}"
        )
    resolved_chunk = 1 if chunk is None else chunk
    resolved = min(resolve_jobs(jobs), os.cpu_count() or 1)
    t0 = perf_counter()
    results: List[Any] = [None] * len(spec_list)
    journal: Optional[CheckpointJournal] = None
    fingerprints: Optional[List[Optional[str]]] = None
    pending = list(range(len(spec_list)))
    if checkpoint is not None:
        journal = CheckpointJournal(checkpoint)
        fingerprints = [spec_fingerprint(spec) for spec in spec_list]
        stored = journal.load()
        remaining = []
        for i in pending:
            fp = fingerprints[i]
            hit = stored.get(fp) if fp is not None else None
            if hit is not None:
                hit.metadata["checkpoint"] = "hit"
                results[i] = hit
                current().count("runner.checkpoint_hits")
                if progress is not None:
                    progress(i, hit)
            else:
                remaining.append(i)
        pending = remaining
    try:
        if resolved <= 1 or len(pending) <= 1:
            executor, workers = "serial", 1
            _run_serial(
                spec_list, pending, results, failures, journal,
                fingerprints, progress,
            )
        else:
            try:
                pickle.dumps([spec_list[i] for i in pending])
                picklable = True
            except Exception:
                picklable = False
            if not picklable:
                executor, workers = "serial-fallback-unpicklable", 1
                _run_serial(
                    spec_list, pending, results, failures, journal,
                    fingerprints, progress,
                )
            else:
                workers = min(resolved, len(pending))
                try:
                    _run_pool_supervised(
                        spec_list, pending, workers, failures, retries,
                        results, journal, fingerprints, progress,
                        resolved_chunk,
                    )
                    executor = "process-pool"
                except _PoolUnavailable:
                    # Sandboxes without working process spawning fall
                    # back to serial.
                    executor, workers = "serial-fallback-broken-pool", 1
                    _run_serial(
                        spec_list, pending, results, failures, journal,
                        fingerprints, progress,
                    )
    finally:
        if journal is not None:
            journal.close()
    _annotate_campaign(
        results, jobs, resolved, workers, executor, perf_counter() - t0,
        chunk=resolved_chunk,
    )
    return results


def _annotate_campaign(
    results: List[Union[SimulationResult, CellFailure]],
    requested_jobs: Optional[int],
    resolved_jobs: int,
    workers: int,
    executor: str,
    wall_s: float,
    chunk: int = 1,
) -> None:
    """Stamp execution provenance on *results* and gauge it into obs."""
    busy_s = 0.0
    for result in results:
        metadata = result.metadata
        metadata["requested_jobs"] = requested_jobs
        metadata["resolved_jobs"] = resolved_jobs
        metadata["workers"] = workers
        metadata["executor"] = executor
        metadata["chunk"] = chunk
        busy_s += float(metadata.get("cell_wall_s", 0.0))
    obs = current()
    if not obs.enabled:
        return
    obs.count("runner.campaigns")
    obs.count("runner.cells", len(results))
    obs.count(f"runner.executor.{executor}")
    obs.gauge("runner.resolved_jobs", float(resolved_jobs))
    obs.gauge("runner.workers", float(workers))
    obs.gauge("runner.campaign_wall_s", wall_s, units="s")
    for result in results:
        obs.observe(
            "runner.cell_wall_s", float(result.metadata.get("cell_wall_s", 0.0))
        )
    if wall_s > 0.0 and workers > 0 and results:
        # Fraction of the pool's capacity spent inside cells: 1.0 means
        # every worker was busy simulating for the whole campaign.
        obs.gauge("runner.worker_utilization", busy_s / (wall_s * workers))


@dataclass(frozen=True)
class ComparisonPoint:
    """Averaged result of one scheduler at one sweep point."""

    scheduler: str
    average_power: float
    deadline_misses: int
    sleep_entries: float
    speed_changes: float
    runs: int

    def reduction_vs(self, baseline: "ComparisonPoint") -> float:
        """Fractional power reduction relative to *baseline*."""
        if baseline.average_power <= 0:
            return 0.0
        return 1.0 - self.average_power / baseline.average_power


def compare_schedulers(
    taskset: TaskSet,
    schedulers: Dict[str, "object"],
    spec: Optional[ProcessorSpec] = None,
    execution_model: Optional[ExecutionTimeModel] = None,
    seeds: Sequence[int] = (1, 2, 3),
    duration: Optional[float] = None,
    on_miss: str = "record",
    jobs: Optional[int] = 1,
    checkpoint: Union[None, str, Path] = None,
) -> Dict[str, ComparisonPoint]:
    """Run every scheduler over every seed and average the powers.

    *schedulers* maps display names to factory callables — registry names
    or zero-argument factories (a fresh policy object per run keeps
    per-run state clean).  *jobs* > 1 fans the (scheduler, seed) grid out
    over :func:`run_many` worker processes; the averaged numbers are
    identical to the serial ones.  *checkpoint* names a journal
    directory so an interrupted comparison resumes instead of rerunning
    (registry-named schedulers only; factory cells always recompute).
    """
    spec = spec if spec is not None else ProcessorSpec.arm8()
    model = execution_model if execution_model is not None else GaussianModel()
    horizon = duration if duration is not None else measurement_duration(taskset)
    names = list(schedulers)
    cells = [
        RunSpec(
            taskset=taskset,
            scheduler=schedulers[name],
            seed=seed,
            spec=spec,
            execution_model=model,
            duration=horizon,
            on_miss=on_miss,
        )
        for name in names
        for seed in seeds
    ]
    results = run_many(cells, jobs=jobs, checkpoint=checkpoint)
    points: Dict[str, ComparisonPoint] = {}
    n_seeds = len(seeds)
    for i, name in enumerate(names):
        block = results[i * n_seeds : (i + 1) * n_seeds]
        powers: List[float] = []
        misses = 0
        sleeps = 0.0
        speed_changes = 0.0
        for result in block:
            powers.append(result.average_power)
            misses += len(result.deadline_misses)
            sleeps += result.sleep_entries
            speed_changes += result.speed_changes
        points[name] = ComparisonPoint(
            scheduler=name,
            average_power=sum(powers) / len(powers),
            deadline_misses=misses,
            sleep_entries=sleeps / n_seeds,
            speed_changes=speed_changes / n_seeds,
            runs=n_seeds,
        )
    return points
