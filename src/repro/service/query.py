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
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from ..errors import ConfigurationError, ServiceError
from ..tasks.generation import ExecutionTimeModel, GaussianModel, WcetModel
from ..tasks.priority import rate_monotonic
from ..tasks.task import Task, TaskSet

#: The question kinds the service answers.
KINDS = ("schedulability", "rta", "energy")

#: Execution-time models a query may name (energy kind only).
EXECUTION_MODELS = ("wcet", "gaussian")

#: Accepted time units for inline task parameters, as µs multipliers.
TIME_UNITS: Dict[str, float] = {"us": 1.0, "ms": 1_000.0, "s": 1_000_000.0}

#: Task fields carrying times, scaled by the query's ``time_unit``.
_TIME_FIELDS = ("wcet", "period", "deadline", "bcet", "phase")


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


def _typed(check: Callable[..., Any], value: Any, path: str, **bounds: bool) -> Any:
    """*value* through a scenario-schema type *check*, else :class:`QueryError`.

    JSON types are taken literally: a bool is not a number and a float
    is not an integer, so a mistyped field fails instead of coercing
    into another request's answer.
    """
    try:
        return check(value, path, **bounds)
    except ConfigurationError as exc:
        raise QueryError(str(exc)) from None


def _parse_tasks(raw: Sequence[Mapping[str, Any]], unit_scale: float) -> TaskSet:
    """Build a :class:`TaskSet` from inline JSON task dicts."""
    from ..scenarios.schema import _integer, _number  # the schema imports us

    if not raw:
        raise QueryError("tasks must be a non-empty list")
    tasks = []
    priorities_given = 0
    for i, entry in enumerate(raw):
        if not isinstance(entry, Mapping):
            raise QueryError(f"tasks[{i}] must be an object")
        unknown = set(entry) - {"name", "priority", *_TIME_FIELDS}
        if unknown:
            raise QueryError(f"tasks[{i}]: unknown fields {sorted(unknown)}")
        if "name" not in entry or "wcet" not in entry or "period" not in entry:
            raise QueryError(f"tasks[{i}]: name, wcet, and period are required")
        kwargs: Dict[str, Any] = {"name": str(entry["name"])}
        for field in _TIME_FIELDS:
            if entry.get(field) is not None:
                value = _typed(_number, entry[field], f"tasks[{i}].{field}")
                kwargs[field] = value * unit_scale
        if entry.get("priority") is not None:
            priority = _typed(_integer, entry["priority"], f"tasks[{i}].priority")
            kwargs["priority"] = priority
            priorities_given += 1
        try:
            tasks.append(Task(**kwargs))
        except ConfigurationError as exc:
            raise QueryError(f"tasks[{i}]: {exc}") from exc
    if 0 < priorities_given < len(tasks):
        raise QueryError("either all tasks or none must carry a priority")
    try:
        return TaskSet(tasks, name="inline")
    except ConfigurationError as exc:
        raise QueryError(str(exc)) from exc


def parse_query(request: Mapping[str, Any]) -> Query:
    """Parse and normalise one JSON request body into a :class:`Query`.

    The request names its workload either by registry name (``"app"``)
    or inline (``"tasks"`` plus optional ``"time_unit"``); everything
    else is optional with the library's defaults.
    """
    from ..scenarios.schema import _integer, _number  # the schema imports us

    if not isinstance(request, Mapping):
        raise QueryError("request body must be a JSON object")
    known = {
        "kind", "app", "tasks", "time_unit", "scheduler", "seed",
        "bcet_ratio", "duration", "execution", "record_trace",
    }
    unknown = set(request) - known
    if unknown:
        raise QueryError(f"unknown request fields {sorted(unknown)}")
    kind = request.get("kind", "energy")
    unit = request.get("time_unit", "us")
    if unit not in TIME_UNITS:
        raise QueryError(
            f"unknown time_unit {unit!r}; available: {', '.join(TIME_UNITS)}"
        )
    scale = TIME_UNITS[unit]
    has_app = request.get("app") is not None
    has_tasks = request.get("tasks") is not None
    if has_app == has_tasks:
        raise QueryError("exactly one of 'app' or 'tasks' is required")
    if has_app:
        from ..workloads.registry import available_workloads, get_workload

        try:
            taskset = get_workload(str(request["app"])).taskset
        except ConfigurationError:
            raise QueryError(
                f"unknown workload {request['app']!r}; "
                f"available: {', '.join(available_workloads())}"
            ) from None
    else:
        tasks = request["tasks"]
        if not isinstance(tasks, Sequence) or isinstance(tasks, (str, bytes)):
            raise QueryError("tasks must be a list of task objects")
        taskset = _parse_tasks(tasks, scale)
    duration = request.get("duration")
    if duration is not None:
        duration = _typed(_number, duration, "duration") * scale
    bcet_ratio = request.get("bcet_ratio")
    if bcet_ratio is not None:
        bcet_ratio = _typed(_number, bcet_ratio, "bcet_ratio")
    record_trace = request.get("record_trace")
    if record_trace is not None and not isinstance(record_trace, bool):
        raise QueryError(f"record_trace: expected a boolean, got {record_trace!r}")
    return build_query(
        kind=str(kind),
        taskset=taskset,
        scheduler=str(request.get("scheduler", "lpfps")),
        seed=_typed(_integer, request.get("seed", 1), "seed"),
        bcet_ratio=bcet_ratio,
        duration=duration,
        execution=str(request.get("execution", "gaussian")),
        record_trace=bool(record_trace),
    )
