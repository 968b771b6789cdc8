"""The ``/v1/metrics`` names that consumers index directly.

``perfbench`` and the concurrency tests read these names out of the
scraped payload by string, after flattening every ``tests`` entry into
one ``{name: value}`` map.  A renamed or dropped name would read as a
silent zero there, so this pins each one: present on a fresh server
before any request, and still present after a hit, a miss and an
analytic query.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.service.client import ServiceClient
from repro.service.server import ScheduleService, running_server

REQUEST_COUNTERS = (
    "requests", "cache_hits", "dedup_hits", "dispatched", "batches",
    "batched_cells", "shed", "timeouts", "fallbacks", "errors",
)
CACHE_COUNTERS = (
    "cache_hits_memory", "cache_hits_disk", "cache_misses", "cache_puts",
    "cache_memory_entries",
)
LATENCY_PERCENTILES = tuple(
    f"{path}_latency_{p}_ms"
    for path in ("hit", "miss", "analytic")
    for p in ("p50", "p95", "p99")
)
FRESH_NAMES = REQUEST_COUNTERS + CACHE_COUNTERS + LATENCY_PERCENTILES
TRAFFIC_NAMES = FRESH_NAMES + (
    "broker.batch_window_total_s",
    "broker.batch_window_count",
    "broker.dispatch_total_s",
    "broker.dispatch_count",
)

ENERGY = {"kind": "energy", "app": "example", "duration": 400.0, "seed": 1}
ANALYTIC = {"kind": "schedulability", "app": "cnc"}


def _flatten(payload) -> Dict[str, float]:
    """Every entry's metrics in one map, as ``perfbench/server.py`` does."""
    flat: Dict[str, float] = {}
    for test in payload["tests"].values():
        for metric in test["metrics"]:
            flat[metric["name"]] = float(metric["value"])
    return flat


@pytest.fixture(scope="module")
def scrapes():
    service = ScheduleService(jobs=1)
    try:
        with running_server(service) as server:
            client = ServiceClient(server.url, timeout_s=120.0)
            status, fresh = client.metrics()
            assert status == 200
            for request in (ENERGY, ENERGY, ANALYTIC):  # miss, hit, analytic
                status, payload = client.query(request)
                assert status == 200 and payload["ok"] is True
            status, after = client.metrics()
            assert status == 200
    finally:
        service.close()
    return _flatten(fresh), _flatten(after)


@pytest.mark.parametrize("name", FRESH_NAMES)
def test_name_present_on_a_fresh_server(scrapes, name):
    fresh, _ = scrapes
    assert name in fresh
    assert fresh[name] == 0


@pytest.mark.parametrize("name", TRAFFIC_NAMES)
def test_name_present_after_traffic(scrapes, name):
    _, after = scrapes
    assert name in after


def test_traffic_moved_the_counters(scrapes):
    _, after = scrapes
    assert after["requests"] == 3
    assert after["cache_hits"] == 1
    assert after["dispatched"] == 1
    assert after["cache_puts"] == 2  # the miss's answer and the analytic one
    assert after["broker.dispatch_count"] == 1
    for path in ("hit", "miss", "analytic"):
        assert after[f"{path}_latency_p50_ms"] > 0.0, path


def test_no_event_is_served_under_two_names(scrapes):
    # Window shrinks and memory evictions are served once each, as
    # broker.window_shrinks and cache.mem_evictions when they occur.
    for fresh_or_after in scrapes:
        assert "window_shrinks" not in fresh_or_after
        assert "cache_evictions" not in fresh_or_after
