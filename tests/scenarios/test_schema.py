"""Scenario schema: strict validation, normalisation, fingerprinting.

Every rejection must name the offending field path — that is the
contract the service's 400 responses and the CLI's validate subcommand
surface to users — and the canonical document must round-trip to an
identical fingerprint (the property the CI ``scenario check`` job pins
across the whole pack library).
"""

import copy

import pytest

from repro.analysis.weakly_hard import WeaklyHard
from repro.errors import ConfigurationError
from repro.scenarios import SCHEMA_ID, load_scenario, parse_scenario
from repro.tasks.document import taskset_fingerprint


def _doc(**overrides):
    document = {
        "schema": SCHEMA_ID,
        "name": "unit",
        "tasks": [
            {"name": "a", "wcet": 100.0, "period": 400.0},
            {"name": "b", "wcet": 100.0, "period": 800.0},
        ],
    }
    document.update(overrides)
    return document


class TestValidation:
    def test_minimal_document_parses_with_defaults(self):
        scenario = parse_scenario(_doc())
        assert scenario.name == "unit"
        assert scenario.processor_name == "arm8"
        assert scenario.execution["model"] == "gaussian"
        assert scenario.campaign.schedulers == ("fps",)
        assert scenario.campaign.seeds == (1,)
        # default horizon: one hyperperiod
        assert scenario.campaign.duration == scenario.taskset.hyperperiod
        # rate-monotonic priorities were assigned
        assert all(task.priority is not None for task in scenario.taskset)

    def test_unknown_top_level_key_names_the_path(self):
        with pytest.raises(ConfigurationError, match=r"^wat: unknown key"):
            parse_scenario(_doc(wat=1))

    def test_unknown_task_key_names_the_indexed_path(self):
        document = _doc()
        document["tasks"][1]["wcett"] = 3
        with pytest.raises(
            ConfigurationError, match=r"^tasks\[1\]\.wcett: unknown key"
        ):
            parse_scenario(document)

    def test_wrong_schema_id(self):
        with pytest.raises(ConfigurationError, match="schema: expected"):
            parse_scenario(_doc(schema="repro/scenario/v0"))

    def test_name_must_be_a_slug(self):
        with pytest.raises(ConfigurationError, match="name: expected a slug"):
            parse_scenario(_doc(name="No Spaces"))

    def test_bool_is_not_a_number(self):
        document = _doc()
        document["tasks"][0]["wcet"] = True
        with pytest.raises(
            ConfigurationError, match=r"tasks\[0\]\.wcet: expected a number"
        ):
            parse_scenario(document)

    def test_unknown_scheduler_is_rejected_with_the_available_list(self):
        document = _doc(campaign={"schedulers": ["fps", "nope"]})
        with pytest.raises(
            ConfigurationError,
            match=r"campaign\.schedulers\[1\]: unknown scheduler 'nope'",
        ):
            parse_scenario(document)

    def test_duplicate_schedulers_rejected(self):
        document = _doc(campaign={"schedulers": ["fps", "FPS"]})
        with pytest.raises(ConfigurationError, match="duplicate entries"):
            parse_scenario(document)

    def test_duration_and_hyperperiods_are_exclusive(self):
        document = _doc(campaign={"duration": 800.0, "hyperperiods": 2})
        with pytest.raises(
            ConfigurationError, match="either duration or hyperperiods"
        ):
            parse_scenario(document)

    def test_explicit_priorities_required_when_declared(self):
        document = _doc(priorities="explicit")
        with pytest.raises(
            ConfigurationError, match=r"tasks\[0\]\.priority: required"
        ):
            parse_scenario(document)

    def test_priority_forbidden_under_rate_monotonic(self):
        document = _doc()
        document["tasks"][0]["priority"] = 0
        with pytest.raises(
            ConfigurationError, match=r"tasks\[0\]\.priority: only allowed"
        ):
            parse_scenario(document)

    def test_infeasible_weakly_hard_demand_rejected(self):
        document = _doc(
            tasks=[
                {"name": "hard", "wcet": 900.0, "period": 1000.0},
                {
                    "name": "soft",
                    "wcet": 900.0,
                    "period": 1000.0,
                    "weakly_hard": [1, 2],
                },
            ]
        )
        with pytest.raises(
            ConfigurationError, match="tasks: weakly-hard demand 1.350"
        ):
            parse_scenario(document)

    def test_bimodal_knob_rejected_on_other_models(self):
        document = _doc(execution={"model": "wcet", "p_short": 0.5})
        with pytest.raises(
            ConfigurationError, match=r"execution\.p_short: not accepted"
        ):
            parse_scenario(document)

    def test_load_scenario_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_scenario(path)


class TestNormalisation:
    def test_time_unit_scales_to_microseconds(self):
        ms = parse_scenario(
            _doc(
                time_unit="ms",
                tasks=[{"name": "a", "wcet": 1.0, "period": 4.0}],
            )
        )
        task = next(iter(ms.taskset))
        assert task.wcet == 1_000.0
        assert task.period == 4_000.0
        assert ms.campaign.duration == 4_000.0

    def test_weakly_hard_constraints_are_coerced(self):
        document = _doc()
        document["tasks"][1]["weakly_hard"] = [1, 2]
        scenario = parse_scenario(document)
        assert scenario.constraints == {"b": WeaklyHard(1, 2)}

    def test_canonical_document_is_itself_valid(self):
        scenario = parse_scenario(_doc())
        canonical = scenario.canonical_document()
        assert canonical["time_unit"] == "us"
        assert canonical["priorities"] == "explicit"
        reparsed = parse_scenario(canonical)
        assert reparsed.fingerprint() == scenario.fingerprint()


class TestFingerprint:
    def test_equal_documents_equal_fingerprints(self):
        assert (
            parse_scenario(_doc()).fingerprint()
            == parse_scenario(copy.deepcopy(_doc())).fingerprint()
        )

    def test_task_change_changes_fingerprint(self):
        changed = _doc()
        changed["tasks"][0]["wcet"] = 101.0
        assert (
            parse_scenario(_doc()).fingerprint()
            != parse_scenario(changed).fingerprint()
        )

    def test_campaign_change_changes_fingerprint(self):
        assert (
            parse_scenario(_doc()).fingerprint()
            != parse_scenario(_doc(campaign={"seeds": [1, 2]})).fingerprint()
        )

    def test_composes_with_the_service_workload_fingerprint(self):
        """Scenarios over the same task set embed the same workload digest."""
        a = parse_scenario(_doc())
        b = parse_scenario(_doc(campaign={"seeds": [1, 2, 3]}))
        assert a.fingerprint() != b.fingerprint()
        assert taskset_fingerprint(a.taskset) == taskset_fingerprint(b.taskset)
