"""The service query model.

A :class:`Query` is one fully-resolved request against the scheduling
service: a *kind* (what question is being asked), a concrete prioritised
task set in canonical base units (µs), and — for simulation-backed kinds
— the scheduler, seed, horizon, and execution-time model that pin the
answer down to a deterministic, cacheable value.

Resolution happens at parse time, not at execution time, so that the
content fingerprint (:mod:`repro.service.fingerprint`) is computed over
exactly what will run:

* named workloads (``"app": "ins"``) are expanded to their task
  parameters — an inline copy of the same tasks fingerprints
  identically to the registry name;
* times given in ``ms``/``s`` are normalised to µs (the library's base
  unit, see :mod:`repro.units`);
* a BCET ratio is applied to the task set;
* missing priorities are assigned rate-monotonically (the paper's
  default); explicit priorities are honoured;
* fields that cannot influence an analytic answer (scheduler, seed,
  horizon for ``schedulability``/``rta``) are canonicalised away, so
  equivalent analytic queries share one cache line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..errors import ConfigurationError, ServiceError
from ..tasks.document import check_keys, fail, integer, number, parse_task, time_scale
from ..tasks.generation import ExecutionTimeModel, GaussianModel, WcetModel
from ..tasks.priority import rate_monotonic
from ..tasks.task import TaskSet
from ..workloads.registry import get_workload

#: The question kinds the service answers.
KINDS = ("schedulability", "rta", "energy")

#: Execution-time models a query may name (energy kind only).
EXECUTION_MODELS = ("wcet", "gaussian")

#: Keys a request body may carry.
_REQUEST_KEYS = (
    "kind", "app", "tasks", "time_unit", "scheduler", "seed",
    "bcet_ratio", "duration", "execution", "record_trace",
)


class QueryError(ServiceError):
    """A request is malformed or references unknown names (HTTP 400)."""

    kind = "bad-request"


@dataclass(frozen=True)
class Query:
    """One resolved, deterministic service request.

    Instances are built through :func:`parse_query` (JSON requests) or
    :func:`build_query` (in-process callers); both normalise the fields
    so that equality — and the content fingerprint — reflect *what will
    run*, not how the request was spelled.
    """

    kind: str
    taskset: TaskSet
    scheduler: str = "lpfps"
    seed: int = 1
    duration: Optional[float] = None
    execution: str = "gaussian"
    record_trace: bool = False

    def execution_model(self) -> ExecutionTimeModel:
        """Instantiate this query's execution-time model."""
        return GaussianModel() if self.execution == "gaussian" else WcetModel()

    def to_runspec(self):
        """The :class:`~repro.experiments.runner.RunSpec` this query runs as.

        Only meaningful for ``energy`` queries; analytic kinds never
        reach the simulator.
        """
        from ..experiments.runner import RunSpec

        if self.kind != "energy":
            raise QueryError(f"{self.kind} queries do not simulate")
        return RunSpec(
            taskset=self.taskset,
            scheduler=self.scheduler,
            seed=self.seed,
            execution_model=self.execution_model(),
            duration=self.duration,
            on_miss="record",
            record_trace=self.record_trace,
        )


def build_query(
    kind: str,
    taskset: TaskSet,
    scheduler: str = "lpfps",
    seed: int = 1,
    bcet_ratio: Optional[float] = None,
    duration: Optional[float] = None,
    execution: str = "gaussian",
    record_trace: bool = False,
) -> Query:
    """Build a normalised :class:`Query` from in-process objects.

    *taskset* may lack priorities (rate-monotonic is assigned) and is
    copied with *bcet_ratio* applied when given.  For analytic kinds the
    simulation-only knobs are canonicalised so the fingerprint ignores
    them.
    """
    if kind not in KINDS:
        raise QueryError(f"unknown query kind {kind!r}; available: {', '.join(KINDS)}")
    if not taskset.has_priorities:
        taskset = rate_monotonic(taskset)
    try:
        taskset.assert_priorities()
        if bcet_ratio is not None:
            taskset = taskset.with_bcet_ratio(bcet_ratio)
    except ConfigurationError as exc:
        raise QueryError(str(exc)) from exc
    if kind != "energy":
        # Analytic answers depend on the task set alone.
        return Query(kind=kind, taskset=taskset, scheduler="rta", seed=0,
                     duration=None, execution="wcet", record_trace=False)
    from ..schedulers.registry import available_schedulers

    scheduler = scheduler.lower()
    if scheduler not in available_schedulers():
        raise QueryError(
            f"unknown scheduler {scheduler!r}; "
            f"available: {', '.join(available_schedulers())}"
        )
    if execution not in EXECUTION_MODELS:
        raise QueryError(
            f"unknown execution model {execution!r}; "
            f"available: {', '.join(EXECUTION_MODELS)}"
        )
    if duration is None:
        from ..experiments.runner import measurement_duration

        duration = measurement_duration(taskset)
    duration = float(duration)
    if duration <= 0:
        raise QueryError(f"duration must be > 0, got {duration}")
    return Query(
        kind=kind,
        taskset=taskset,
        scheduler=scheduler,
        seed=int(seed),
        duration=duration,
        execution=execution,
        record_trace=bool(record_trace),
    )


def _inline_taskset(raw: Any, scale: float) -> TaskSet:
    """The request's inline ``tasks``: all carry a priority, or none do."""
    if not isinstance(raw, list) or not raw:
        fail("tasks", f"expected a non-empty list, got {raw!r}")
    tasks = [parse_task(entry, f"tasks[{i}]", scale) for i, entry in enumerate(raw)]
    if 0 < sum(task.priority is not None for task in tasks) < len(tasks):
        fail("tasks", "either all tasks or none must carry a priority")
    return TaskSet(tasks, name="inline")


def parse_query(request: Mapping[str, Any]) -> Query:
    """Parse and normalise one JSON request body into a :class:`Query`.

    The request names its workload either by registry name (``"app"``)
    or inline (``"tasks"`` plus optional ``"time_unit"``); everything
    else is optional with the library's defaults.  Inline tasks follow
    :func:`repro.tasks.document.parse_task`; a malformed field is a
    :class:`QueryError` that starts with its field path.
    """
    if not isinstance(request, Mapping):
        raise QueryError("request body must be a JSON object")
    try:
        check_keys(request, "", _REQUEST_KEYS)
        if (request.get("app") is None) == (request.get("tasks") is None):
            raise QueryError("exactly one of 'app' or 'tasks' is required")
        scale = time_scale(request.get("time_unit", "us"))
        if request.get("app") is not None:
            taskset = get_workload(str(request["app"])).taskset
        else:
            taskset = _inline_taskset(request["tasks"], scale)
        duration = request.get("duration")
        if duration is not None:
            duration = number(duration, "duration") * scale
        bcet_ratio = request.get("bcet_ratio")
        if bcet_ratio is not None:
            bcet_ratio = number(bcet_ratio, "bcet_ratio")
        seed = integer(request.get("seed", 1), "seed")
        record_trace = request.get("record_trace")
        if record_trace is not None and not isinstance(record_trace, bool):
            fail("record_trace", f"expected a boolean, got {record_trace!r}")
    except ConfigurationError as exc:
        raise QueryError(str(exc)) from None
    return build_query(
        kind=str(request.get("kind", "energy")),
        taskset=taskset,
        scheduler=str(request.get("scheduler", "lpfps")),
        seed=seed,
        bcet_ratio=bcet_ratio,
        duration=duration,
        execution=str(request.get("execution", "gaussian")),
        record_trace=bool(record_trace),
    )
