"""How a task set is spelled in JSON and how it is hashed.

Service queries (``/v1/query``), scenario documents
(``repro/scenario/v1``) and the checkpoint journal all read or hash the
same periodic tasks, so they share this one leaf:

* **typed fields** — JSON types are taken literally: a bool is not a
  number and a float is not an integer, so a mistyped field fails with
  its field path (``tasks[3].wcet: expected a number``) instead of
  coercing into another request's answer;
* **one task parser** — :func:`parse_task` reads one task object in a
  document time unit and scales it to µs.  An optional field set to
  ``null`` counts as absent; ``name`` is a non-empty string; numbers are
  finite and range-checked; ``priority`` is an integer ``>= 0``.  Rules about the
  whole document (priority policies, extra keys) stay with the caller;
* **one canonical form** — :func:`canonical_tasks` sorts tasks by name
  and renders every time parameter ``repr(float(...))``, the shortest
  round-trip form, so ``2000``, ``2000.0``, ``2e3`` and ``2`` ms scaled
  to µs all hash through the string ``'2000.0'``.

Every rejection is a :class:`~repro.errors.ConfigurationError` whose
message starts with the offending field path.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, NoReturn, Sequence

from ..durable import checksum
from ..errors import ConfigurationError
from ..units import TIME_UNITS
from .task import Task

#: Bumped whenever the canonical task layout changes, so stale disk
#: cache entries from older layouts can never alias a new fingerprint.
FINGERPRINT_VERSION = 1

#: Keys a task object may carry.
_TASK_KEYS = ("name", "wcet", "period", "deadline", "bcet", "phase", "priority")

#: Task fields holding times, scaled by the document's time unit.
_TIME_FIELDS = ("wcet", "period", "deadline", "bcet", "phase")


def fail(path: str, message: str) -> NoReturn:
    raise ConfigurationError(f"{path}: {message}")


def check_keys(obj: Any, path: str, allowed: Sequence[str]) -> None:
    if not isinstance(obj, Mapping):
        fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        fail(
            f"{path}.{unknown[0]}" if path else unknown[0],
            f"unknown key (allowed: {', '.join(sorted(allowed))})",
        )


def string(obj: Mapping[str, Any], path: str, key: str, default: str = "") -> str:
    value = obj.get(key, default)
    if not isinstance(value, str):
        fail(f"{path}.{key}" if path else key, f"expected a string, got {value!r}")
    return value


def number(
    value: Any, path: str, *, positive: bool = False, nonnegative: bool = False
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(path, f"expected a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an integer beyond the float range
        result = math.inf
    if not math.isfinite(result):  # JSON bodies may spell NaN and Infinity
        fail(path, f"expected a finite number, got {value!r}")
    if positive and result <= 0:
        fail(path, f"must be > 0, got {value!r}")
    if nonnegative and result < 0:
        fail(path, f"must be >= 0, got {value!r}")
    return result


def integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        fail(path, f"expected an integer, got {value!r}")
    return int(value)


def time_scale(unit: Any, path: str = "time_unit") -> float:
    """The µs multiplier of a document's *unit* (``us``, ``ms`` or ``s``)."""
    if not isinstance(unit, str) or unit not in TIME_UNITS:
        fail(path, f"must be one of {sorted(TIME_UNITS)}, got {unit!r}")
    return TIME_UNITS[unit]


def parse_task(
    obj: Any, path: str, scale: float, extra_keys: Iterable[str] = ()
) -> Task:
    """One task object at *path*, its times multiplied by *scale* into µs.

    *extra_keys* are further keys the caller reads itself (a scenario's
    ``weakly_hard``); they are allowed here and otherwise ignored.
    """
    check_keys(obj, path, _TASK_KEYS + tuple(extra_keys))
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        fail(f"{path}.name", f"expected a non-empty string, got {name!r}")
    fields: Dict[str, Any] = {"name": name}
    for key in _TIME_FIELDS:
        value = obj.get(key)
        if value is None:
            if key in ("wcet", "period"):
                fail(f"{path}.{key}", "required key is missing")
            continue
        phase = key == "phase"
        fields[key] = (
            number(value, f"{path}.{key}", positive=not phase, nonnegative=phase)
            * scale
        )
    priority = obj.get("priority")
    if priority is not None:
        priority = integer(priority, f"{path}.priority")
        if priority < 0:
            fail(f"{path}.priority", f"must be >= 0, got {priority}")
        fields["priority"] = priority
    try:
        return Task(**fields)
    except ConfigurationError as exc:
        fail(path, str(exc))


def num(value: float) -> str:
    """Canonical string form of one numeric parameter (``repr``-exact)."""
    return repr(float(value))


def canonical_tasks(taskset: Iterable[Task]) -> List[Dict[str, Any]]:
    """Canonical, JSON-ready task list shared by every fingerprint.

    Sorted by name, every time parameter in :func:`num` form, so a query,
    a scenario and a journal cell over identical tasks hash identical
    bytes.
    """
    return [
        {
            "name": task.name,
            "wcet": num(task.wcet),
            "period": num(task.period),
            "deadline": num(task.deadline),
            "bcet": num(task.bcet),
            "phase": num(task.phase),
            "priority": None if task.priority is None else int(task.priority),
        }
        for task in sorted(taskset, key=lambda t: t.name)
    ]


def taskset_fingerprint(taskset: Iterable[Task]) -> str:
    """SHA-256 over the canonical task list alone (the workload identity)."""
    return checksum({"v": FINGERPRINT_VERSION, "tasks": canonical_tasks(taskset)})
