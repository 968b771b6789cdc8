"""``/v1/metrics`` under concurrent load: exact counters, valid payloads.

A pool of writer threads hammers ``/v1/query`` (a mix of repeats, so
both the hit and miss paths run) while reader threads poll
``/v1/metrics``.  Every snapshot a reader sees must be a valid
bench-metrics/v1 payload — no torn JSON, no schema drift — and once the
writers drain, the counters must be exact: the registry serialises
updates under one lock, so concurrency may interleave requests but can
never lose one.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.schema import validate_bench_metrics
from repro.service.client import ServiceClient
from repro.service.server import ScheduleService, running_server

WRITERS = 6
REQUESTS_PER_WRITER = 8
READERS = 2


@pytest.fixture(scope="module")
def hammered():
    """Run the hammer once; yield the service and the collected errors."""
    service = ScheduleService(jobs=1)
    errors: list = []
    with running_server(service) as server:
        client = ServiceClient(server.url, timeout_s=120.0)
        stop = threading.Event()

        def write(worker: int) -> None:
            for i in range(REQUESTS_PER_WRITER):
                # Half the seeds repeat across workers → cache hits.
                seed = (worker * REQUESTS_PER_WRITER + i) % 5
                try:
                    status, payload = client.query(
                        {
                            "kind": "energy",
                            "app": "example",
                            "duration": 400.0,
                            "seed": seed,
                        }
                    )
                    if status != 200 or payload.get("ok") is not True:
                        errors.append(("query", status, payload))
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(("query", exc))

        def read() -> None:
            while not stop.is_set():
                try:
                    status, payload = client.metrics()
                    if status != 200:
                        errors.append(("metrics", status))
                        continue
                    problems = validate_bench_metrics(payload)
                    if problems:
                        errors.append(("metrics", problems))
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(("metrics", exc))

        readers = [threading.Thread(target=read) for _ in range(READERS)]
        writers = [
            threading.Thread(target=write, args=(w,)) for w in range(WRITERS)
        ]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()

        status, final = client.metrics()
        assert status == 200
        yield final, errors
    service.close()


def test_no_request_failed_under_load(hammered):
    _, errors = hammered
    assert errors == []


def test_final_snapshot_is_valid_bench_metrics(hammered):
    final, _ = hammered
    assert final["schema"] == "bench-metrics/v1"
    assert validate_bench_metrics(final) == []
    assert set(final["tests"]) == {"service"}


def test_request_counter_is_exact(hammered):
    final, _ = hammered
    service_metrics = {
        m["name"]: m["value"] for m in final["tests"]["service"]["metrics"]
    }
    total = WRITERS * REQUESTS_PER_WRITER
    assert service_metrics["requests"] == total
    # Every energy request takes exactly one of the three admission
    # paths, so the counters partition the request count exactly.
    assert (
        service_metrics["cache_hits"]
        + service_metrics["dedup_hits"]
        + service_metrics["dispatched"]
        == total
    )
    # 5 distinct seeds on one (app, scheduler, duration) point: in-flight
    # dedupe guarantees each unique cell is computed exactly once.
    assert service_metrics["dispatched"] == 5


def test_broker_spans_count_every_submission(hammered):
    final, _ = hammered
    obs_metrics = {
        m["name"]: m["value"] for m in final["tests"]["service"]["metrics"]
    }
    total = WRITERS * REQUESTS_PER_WRITER
    # Every submit probes the cache exactly once, hit or miss.
    assert obs_metrics["broker.cache_lookup_count"] == total
    for name in (
        "broker.dedupe_count",
        "broker.batch_window_count",
        "broker.dispatch_count",
        "broker.serialize_count",
        "broker.batch_size_count",
    ):
        assert obs_metrics[name] >= 1, name
    assert obs_metrics["broker.dispatch_total_s"] > 0.0
