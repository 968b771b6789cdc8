"""One task spelling across surfaces: queries and scenarios share a parser.

The same task list spelled as a ``/v1/query`` body and as a
``repro/scenario/v1`` document must parse to the same canonical task
form, and a mistyped task field must be rejected by both with the same
field path.  ``repro.tasks.document`` is a leaf: validating a scenario
must not load the HTTP service.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ConfigurationError
from repro.scenarios import SCHEMA_ID, parse_scenario
from repro.service.query import QueryError, parse_query
from repro.tasks.document import canonical_tasks, parse_task

UNITS = ("us", "ms", "s")


@st.composite
def task_lists(draw):
    """Valid task lists in document units, with distinct periods so the
    rate-monotonic order is unique, optionally with explicit priorities."""
    periods = draw(st.lists(st.integers(2, 10_000), min_size=1, max_size=5,
                            unique=True))
    explicit = draw(st.booleans())
    tasks = []
    for i, period in enumerate(periods):
        wcet = draw(st.integers(1, period // 2 or 1))
        task = {"name": f"t{i}", "wcet": wcet, "period": period}
        if draw(st.booleans()):
            task["deadline"] = draw(st.integers(wcet, period))
        if draw(st.booleans()):
            task["bcet"] = draw(st.integers(1, wcet))
        if draw(st.booleans()):
            task["phase"] = draw(st.integers(0, period))
        if explicit:
            task["priority"] = len(periods) - 1 - i
        tasks.append(task)
    return tasks, explicit


def _query(tasks, unit):
    return {"kind": "rta", "time_unit": unit, "tasks": tasks}


def _scenario(tasks, unit, explicit):
    return {
        "schema": SCHEMA_ID,
        "name": "cross",
        "time_unit": unit,
        "priorities": "explicit" if explicit else "rate_monotonic",
        "tasks": tasks,
    }


@given(spelled=task_lists(), unit=st.sampled_from(UNITS))
@settings(max_examples=60, deadline=None)
def test_query_and_scenario_parse_to_one_canonical_form(spelled, unit):
    tasks, explicit = spelled
    query = parse_query(_query(tasks, unit))
    scenario = parse_scenario(_scenario(tasks, unit, explicit))
    assert canonical_tasks(query.taskset) == canonical_tasks(scenario.taskset)


#: (field, a value of the wrong type or range for it)
MISTYPED = st.sampled_from([
    ("name", 5), ("name", ""), ("name", True), ("wcet", True), ("wcet", "1"),
    ("wcet", -1), ("period", 0), ("period", [4]), ("deadline", "8"),
    ("bcet", False), ("bcet", -2), ("phase", -1), ("phase", "0"),
    ("priority", 1.5), ("priority", -1), ("priority", True),
    ("period", float("nan")), ("deadline", float("inf")), ("wcet", 10**400),
])


def _path(message):
    return message.split(": ", 1)[0]


@given(spelled=task_lists(), unit=st.sampled_from(UNITS),
       bad=MISTYPED, data=st.data())
@settings(max_examples=80, deadline=None)
def test_mistyped_task_field_is_rejected_with_one_path(spelled, unit, bad, data):
    tasks, explicit = spelled
    index = data.draw(st.integers(0, len(tasks) - 1))
    key, value = bad
    tasks[index] = {**tasks[index], key: value}
    with pytest.raises(QueryError) as query_error:
        parse_query(_query(tasks, unit))
    with pytest.raises(ConfigurationError) as scenario_error:
        parse_scenario(_scenario(tasks, unit, explicit))
    expected = f"tasks[{index}].{key}"
    assert _path(str(query_error.value)) == expected
    assert _path(str(scenario_error.value)) == expected


class TestParseTask:
    def test_null_optional_field_counts_as_absent(self):
        task = parse_task({"name": "a", "wcet": 1, "period": 4, "deadline": None,
                           "bcet": None, "phase": None, "priority": None},
                          "t", 1.0)
        assert (task.deadline, task.bcet, task.phase, task.priority) == (
            4.0, 1.0, 0.0, None)

    def test_null_required_field_is_missing(self):
        with pytest.raises(ConfigurationError, match=r"^t\.wcet: required"):
            parse_task({"name": "a", "wcet": None, "period": 4}, "t", 1.0)

    def test_extra_keys_are_allowed_only_when_named(self):
        obj = {"name": "a", "wcet": 1, "period": 4, "weakly_hard": [1, 2]}
        assert parse_task(obj, "t", 1.0, extra_keys=("weakly_hard",)).name == "a"
        with pytest.raises(ConfigurationError, match=r"^t\.weakly_hard: unknown"):
            parse_task(obj, "t", 1.0)

    def test_task_model_errors_carry_the_path(self):
        with pytest.raises(ConfigurationError, match=r"^t: .*deadline <= period"):
            parse_task({"name": "a", "wcet": 1, "period": 4, "deadline": 5},
                       "t", 1.0)


def _loaded_after(module):
    code = (
        f"import sys, json, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_scenario_schema_loads_no_service_module():
    loaded = _loaded_after("repro.scenarios.schema")
    assert [m for m in loaded if m.startswith("repro.service")] == []


def test_task_document_is_a_leaf():
    loaded = _loaded_after("repro.tasks.document")
    assert [m for m in loaded
            if m.startswith(("repro.service", "repro.scenarios"))] == []
