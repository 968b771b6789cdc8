"""Content-address pins: query, scenario and journal keys are exact bytes.

Every on-disk result-cache entry is keyed by a query fingerprint, every
campaign id composes a scenario fingerprint, and every checkpoint
journal record is keyed by a spec fingerprint.  The other fingerprint
tests check relations (order invariance, unit invariance, registry vs
inline); these pin the absolute sha256 hex, so a refactor of how task
sets are spelled or hashed that changed a single byte fails here instead
of silently turning every stored entry into a miss.

A deliberate layout change bumps ``FINGERPRINT_VERSION`` or
``JOURNAL_VERSION`` and re-pins these values in the same commit.
"""

from __future__ import annotations

import pytest

from repro.experiments.checkpoint import spec_fingerprint
from repro.experiments.runner import RunSpec
from repro.power.processor import ProcessorSpec
from repro.scenarios import available_packs, load_pack
from repro.service.fingerprint import fingerprint
from repro.service.query import parse_query
from repro.tasks.document import taskset_fingerprint
from repro.tasks.generation import GaussianModel
from repro.tasks.task import Task, TaskSet
from repro.workloads.registry import get_workload

pytestmark = pytest.mark.golden

QUERIES = {
    "app-energy": (
        {"kind": "energy", "app": "cnc", "bcet_ratio": 0.5, "seed": 3,
         "duration": 50000},
        "98c7784350e2ded964a1ae5d3cd9957159823c26e30c6f753f8f7e032f4e4c7c",
    ),
    "inline-ms-energy": (
        {"kind": "energy", "time_unit": "ms", "scheduler": "fps", "seed": 7,
         "duration": 40,
         "tasks": [
             {"name": "ctl", "wcet": 0.5, "period": 4, "bcet": 0.25},
             {"name": "log", "wcet": 1.5, "period": 10, "deadline": 8,
              "phase": 1},
         ]},
        "1052d65497c45f78ce9378a806cee26dbfb660c58690f776b0b9fbf5438c7873",
    ),
    "rta": (
        {"kind": "rta", "app": "ins"},
        "5c099e02958e07800c14b44d886e0c79ffd3877279d7d4fe30320aff4489be07",
    ),
}

#: pack -> (Scenario.fingerprint(), taskset_fingerprint(scenario.taskset))
PACKS = {
    "automotive": (
        "85ba4208bcf32639fd0161862eec318179a6f776047286d116e7ea73ea2018e7",
        "92b3793c90ad534dc8d3663bbdc5473f32cc3bb2811cc5c7cf993000046480f4",
    ),
    "avionics": (
        "8c9d6b9766f3e025d45c61827f7246640e7603eccc2847e0d8e4eccc5a567e07",
        "d6e229019822933e5608c7b28b9a9ed7fe6834dba22de845eafcba972de5f707",
    ),
    "bursty_server": (
        "18beb64310ac0110a77bf228427b2047af27be939390d94c4d9b9bd912bd0cf4",
        "eabfae94c509f4cd3ef1e0b7275a3a54c4e68cb02249926e76133acba675b868",
    ),
    "cnc": (
        "d2557d41ab6f51d5b9642f8bd6f9c2edd7ebc3c538b5f3a68514210ff05cf380",
        "5c5498957bbcca82571b30af9c2f7ecb6a603f6ec762b093801137e73e6cf40b",
    ),
    "ins": (
        "2bf3680b2e6323e999ebc5e81ed1388999e79e291f154a11085868e4dcf35bfa",
        "cc45667d4141470cb1f5dd29b7e68bf9bb7eb344cb02a690aaab4347f9a8c555",
    ),
    "sensor_hub": (
        "a47084205adb4ead4d07cca1423de9b0cd9195b000ed7bc21891eef7835d76af",
        "2b0b033ee13b27263243bb1ea1c900d9cea1ed21cd8e494b5a75856c4e71bc5a",
    ),
    "weakly_hard": (
        "66283dd49a839881e2e22e60e6a4ddb40800ae795b2949d6be38772fa3b6ec69",
        "37f3bd599f975128467c74c2c382ec8d40775b08145b98badfa0cd4bf737db87",
    ),
}


def _specs():
    """Figure-8-style cells, plus one over a task set without priorities."""
    return {
        "fps-0.3": (
            RunSpec(taskset=get_workload("cnc").prioritized().with_bcet_ratio(0.3),
                    scheduler="fps", seed=1, spec=ProcessorSpec.arm8(),
                    execution_model=GaussianModel(), duration=100000.0),
            "7853bcd9fa218597d23add18486e8320dc2fc46d6395b1e38c79a4d4e9870dc7",
        ),
        "lpfps-0.7": (
            RunSpec(taskset=get_workload("ins").prioritized().with_bcet_ratio(0.7),
                    scheduler="lpfps", seed=2, spec=ProcessorSpec.arm8(),
                    execution_model=GaussianModel(), duration=250000.0),
            "fdc1949bda9ae9f6a3e39cf5a6d7c7e8002a4e9b045952af6b87c1ee78c8d367",
        ),
        "unprioritised": (
            RunSpec(taskset=TaskSet([Task("b", wcet=2, period=20),
                                     Task("a", wcet=1.5, period=10, bcet=1)],
                                    name="raw"),
                    scheduler="lpfps", seed=0),
            "344c1e03aaf71158924725ca1f094ce2b503eabca63cb754a2fa42c86d8681be",
        ),
    }


@pytest.mark.parametrize("case", sorted(QUERIES))
def test_query_fingerprint_is_pinned(case):
    request, expected = QUERIES[case]
    assert fingerprint(parse_query(request)) == expected


def test_every_bundled_pack_is_pinned():
    assert sorted(available_packs()) == sorted(PACKS)


@pytest.mark.parametrize("pack", sorted(PACKS))
def test_pack_fingerprints_are_pinned(pack):
    scenario = load_pack(pack)
    assert (scenario.fingerprint(), taskset_fingerprint(scenario.taskset)) == PACKS[pack]


@pytest.mark.parametrize("case", ["fps-0.3", "lpfps-0.7", "unprioritised"])
def test_spec_fingerprint_is_pinned(case):
    spec, expected = _specs()[case]
    assert spec_fingerprint(spec) == expected
