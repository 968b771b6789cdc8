"""Broker semantics: dedupe, admission, batching, timeouts, containment."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.service.broker import (
    AdmissionError,
    Broker,
    BrokerClosed,
    RequestTimeout,
    ServiceGuards,
)
from repro.service.cache import ResultCache
from repro.service.query import parse_query
from repro.service.results import execute_query


def _energy(app: str = "example", duration: float = 400.0, **overrides):
    request = {"kind": "energy", "app": app, "duration": duration, "seed": 1}
    request.update(overrides)
    return parse_query(request)


@pytest.fixture()
def broker():
    instance = Broker(cache=ResultCache(), jobs=1)
    yield instance
    instance.close()


class TestPaths:
    def test_miss_then_hit(self, broker):
        query = _energy()
        first = broker.submit(query)
        assert first.path == "miss"
        payload = first.future.result(timeout=60)
        assert payload["ok"] is True
        second = broker.submit(query)
        assert second.path == "hit"
        assert second.future.result(timeout=1) == payload

    def test_miss_matches_reference_execution(self, broker):
        """The broker answer is bit-identical to the sequential path."""
        query = _energy(record_trace=True)
        assert broker.query(query, timeout=60) == execute_query(query)

    def test_analytic_kinds_answer_inline(self, broker):
        query = parse_query({"kind": "schedulability", "app": "cnc"})
        submission = broker.submit(query)
        assert submission.path == "analytic"
        assert submission.future.done()
        assert broker.submit(query).path == "hit"

    def test_deterministic_refusals_become_cached_error_payloads(self, broker):
        """A YDS guard refusal is an answer, not a crash — and it caches."""
        query = _energy(app="ins", duration=25_000.0, scheduler="yds")
        payload = broker.query(query, timeout=60)
        assert payload["ok"] is False
        assert payload["error"].startswith("AnalysisError")
        assert broker.submit(query).path == "hit"


class TestDedupe:
    def test_concurrent_identical_queries_share_one_future(self):
        guards = ServiceGuards(batch_window_s=0.5)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            query = _energy()
            first = broker.submit(query)
            second = broker.submit(query)
            assert first.path == "miss"
            assert second.path == "dedup"
            assert second.future is first.future
            assert broker.obs.counter_value("dispatched") == 1
            assert first.future.result(timeout=60)["ok"] is True

    def test_dedup_wait_is_recorded_as_a_miss(self):
        # A joiner waits on the same simulation as the first caller, so
        # its latency is a miss's, never a cache hit's.
        guards = ServiceGuards(batch_window_s=0.05)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            query = _energy()
            waiters = [
                threading.Thread(target=broker.query, args=(query, 60))
                for _ in range(2)
            ]
            for waiter in waiters:
                waiter.start()
            for waiter in waiters:
                waiter.join()
            assert broker.obs.counter_value("dedup_hits") == 1
            assert broker.obs.window_samples("hit_latency") == []
            assert len(broker.obs.window_samples("miss_latency")) == 2

    def test_dedup_bypasses_admission_control(self):
        guards = ServiceGuards(max_pending=1, batch_window_s=0.5)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            query = _energy()
            assert broker.submit(query).path == "miss"
            # The pending table is full, yet an identical request attaches.
            assert broker.submit(query).path == "dedup"


class TestAdmission:
    def test_unique_overflow_is_shed_with_503_semantics(self):
        guards = ServiceGuards(max_pending=1, batch_window_s=0.5)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            first = broker.submit(_energy(seed=1))
            with pytest.raises(AdmissionError, match="max_pending=1"):
                broker.submit(_energy(seed=2))
            assert broker.obs.counter_value("shed") == 1
            assert first.future.result(timeout=60)["ok"] is True

    def test_guards_validate_configuration(self):
        with pytest.raises(ConfigurationError):
            ServiceGuards(max_pending=0)
        with pytest.raises(ConfigurationError):
            ServiceGuards(request_timeout_s=0)
        with pytest.raises(ConfigurationError):
            ServiceGuards(batch_window_s=-1e-9)
        with pytest.raises(ConfigurationError):
            ServiceGuards(max_batch=0)


class TestBatching:
    def test_window_coalesces_misses_into_one_campaign(self):
        guards = ServiceGuards(batch_window_s=0.3)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            submissions = [broker.submit(_energy(seed=s)) for s in (1, 2, 3)]
            for submission in submissions:
                assert submission.future.result(timeout=60)["ok"] is True
            counters = broker.obs.snapshot()["counters"]
            assert counters["batched_cells"] == 3
            assert counters["batches"] < 3, "the window should coalesce"

    def test_zero_window_still_answers(self):
        guards = ServiceGuards(batch_window_s=0.0)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            assert broker.query(_energy(), timeout=60)["ok"] is True


class TestContainment:
    def test_a_refusal_reruns_alone_and_good_cells_run_once(self, monkeypatch):
        """One refused cell in a batch must not re-simulate its neighbours."""
        from repro.experiments.runner import RunSpec

        refusal = _energy(app="ins", duration=25_000.0, scheduler="yds", seed=4)
        expected = execute_query(refusal)
        run, seeds = RunSpec.run, []

        def counting_run(spec):
            seeds.append(spec.seed)
            return run(spec)

        monkeypatch.setattr(RunSpec, "run", counting_run)
        guards = ServiceGuards(batch_window_s=0.5)
        with Broker(cache=ResultCache(), guards=guards, jobs=1) as broker:
            queries = [_energy(seed=s) for s in (1, 2, 3)] + [refusal]
            submissions = [broker.submit(query) for query in queries]
            payloads = [s.future.result(timeout=60) for s in submissions]
            assert broker.obs.counter_value("batches") == 1
            assert broker.obs.counter_value("fallbacks") == 1
        assert [payload["ok"] for payload in payloads] == [True, True, True, False]
        assert payloads[-1] == expected
        # Each good cell once; the refusal once in the batch, once rerun.
        assert sorted(seeds) == [1, 2, 3, 4, 4]


class TestTimeouts:
    def test_expired_wait_raises_but_result_still_caches(self):
        with Broker(cache=ResultCache(), jobs=1) as broker:
            query = _energy(app="cnc", duration=25_000.0)
            submission = broker.submit(query)
            with pytest.raises(RequestTimeout, match="retry"):
                broker.query(query, timeout=1e-4)
            # The abandoned computation completes and lands in the cache…
            submission.future.result(timeout=60)
            # …so the retry is a pure cache hit.
            assert broker.submit(query).path == "hit"
            assert broker.obs.counter_value("timeouts") == 1


class TestClose:
    def test_submit_after_close_is_refused(self):
        broker = Broker(cache=ResultCache(), jobs=1)
        broker.close()
        with pytest.raises(BrokerClosed):
            broker.submit(_energy())

    def test_close_is_idempotent(self):
        broker = Broker(cache=ResultCache(), jobs=1)
        broker.close()
        broker.close()
