"""Cache-hit bit-identity against the golden trace fixtures.

The service's core contract is that a cached answer is indistinguishable
from a fresh simulation.  This suite pins it against the strongest
oracle the repo has: for every registry scheduler x golden workload
cell, the service is queried twice — a cache miss (fresh simulation via
the broker) and a cache hit — and both payloads must carry the exact
trace digest stored in ``tests/golden/golden_traces.json``.  Golden
cells that are deterministic refusals (the YDS oracle on INS/CNC) must
come back as the pinned ``TypeName: message`` error payload, cached the
same way.

Marked ``golden`` like the trace suite: slow, run in its own CI job.
"""

from __future__ import annotations

import json

import pytest

from repro.schedulers.registry import available_schedulers
from repro.service.query import parse_query
from repro.service.server import ScheduleService

from ..golden.capture import (
    FIXTURE_PATH,
    GOLDEN_BCET_RATIO,
    GOLDEN_SEED,
    GOLDEN_WORKLOADS,
    case_id,
)

pytestmark = pytest.mark.golden


@pytest.fixture(scope="module")
def fixtures():
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    instance = ScheduleService(
        cache_dir=tmp_path_factory.mktemp("service-cache"), jobs=1
    )
    yield instance
    instance.close()


def _golden_request(scheduler: str, workload: str, duration: float) -> dict:
    return {
        "kind": "energy",
        "app": workload,
        "scheduler": scheduler,
        "duration": duration,
        "seed": GOLDEN_SEED,
        "bcet_ratio": GOLDEN_BCET_RATIO,
        "execution": "gaussian",
        "record_trace": True,
    }


@pytest.mark.parametrize("scheduler", available_schedulers())
@pytest.mark.parametrize(
    "workload,duration", GOLDEN_WORKLOADS, ids=[w for w, _ in GOLDEN_WORKLOADS]
)
def test_cache_hit_equals_fresh_golden_digest(
    service, fixtures, scheduler, workload, duration
):
    query = parse_query(_golden_request(scheduler, workload, duration))
    golden = fixtures[case_id(scheduler, workload)]

    miss = service.query(query, timeout=300)
    hit = service.query(query, timeout=300)

    assert hit == miss, "a cache hit must be bit-identical to the fresh run"
    if "error" in golden:
        assert miss["ok"] is False
        assert miss["error"] == golden["error"]
    else:
        assert miss["ok"] is True
        assert miss["digest"] == golden


def test_disk_tier_round_trip_preserves_bit_identity(service, fixtures, tmp_path):
    """A payload reloaded from a *fresh* process's disk tier still
    matches the golden digest — JSON round-tripping loses nothing."""
    scheduler, (workload, duration) = "lpfps", GOLDEN_WORKLOADS[0]
    query = parse_query(_golden_request(scheduler, workload, duration))

    first = ScheduleService(cache_dir=tmp_path / "cache", jobs=1)
    try:
        fresh = first.query(query, timeout=300)
    finally:
        first.close()

    second = ScheduleService(cache_dir=tmp_path / "cache", jobs=1)
    try:
        reloaded = second.query(query, timeout=300)
        assert second.obs.counter_value("cache_hits_disk") == 1, (
            "must come from the disk tier"
        )
    finally:
        second.close()

    assert reloaded == fresh
    assert reloaded["digest"] == fixtures[case_id(scheduler, workload)]
