"""Registry behaviour: mutators, span nesting, threading, installation."""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import (
    DEFAULT_SAMPLE,
    DISABLED,
    Registry,
    current,
    install,
    installed,
)
from repro.obs.schema import validate_bench_metrics


class TestConstruction:
    def test_sample_zero_means_default(self):
        assert Registry().sample == DEFAULT_SAMPLE
        assert Registry(sample=0).sample == DEFAULT_SAMPLE

    def test_explicit_sample_passes_through(self):
        assert Registry(sample=1).sample == 1
        assert Registry(sample=7).sample == 7

    def test_negative_sample_rejected(self):
        with pytest.raises(ConfigurationError, match="sample"):
            Registry(sample=-1)


class TestMutators:
    def test_count_gauge_observe(self):
        r = Registry()
        r.count("c")
        r.count("c", 4)
        r.gauge("g", 2.5, units="x")
        r.observe("h", 0.25, edges=(1.0,))
        assert r.counter_value("c") == 5
        assert r.gauge_value("g") == 2.5
        snap = r.snapshot()
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["buckets"] == [1, 0]

    def test_unknown_names_read_as_zero(self):
        r = Registry()
        assert r.counter_value("nope") == 0
        assert r.gauge_value("nope") == 0.0
        assert r.span_stat("nope") is None

    def test_span_add_batched_flush(self):
        r = Registry()
        r.span_add("loop", 2.0, count=100, self_s=1.5)
        stat = r.span_stat("loop")
        assert stat.count == 100
        assert stat.total_s == pytest.approx(2.0)
        assert stat.self_s == pytest.approx(1.5)

    def test_disabled_registry_drops_everything(self):
        assert DISABLED.enabled is False
        DISABLED.count("c")
        DISABLED.gauge("g", 1.0)
        DISABLED.observe("h", 1.0)
        DISABLED.span_add("s", 1.0)
        with DISABLED.span("s"):
            pass
        assert DISABLED.counter_value("c") == 0
        assert DISABLED.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": {},
        }


class TestWindows:
    def test_record_then_read(self):
        r = Registry()
        r.record("miss_latency", 0.25, 0.5)
        r.record("miss_latency", 1.0)
        assert r.window_samples("miss_latency") == [0.25, 0.5, 1.0]
        assert r.window_samples("nope") == []

    def test_record_without_values_registers_at_zero(self):
        r = Registry()
        r.record("hit_latency")
        assert r.window_samples("hit_latency") == []
        assert r.metrics_list() == [
            {"name": f"hit_latency_{p}_ms", "value": 0.0, "units": "ms"}
            for p in ("p50", "p95", "p99")
        ]

    def test_window_exports_percentiles_in_ms(self):
        r = Registry()
        r.record("w", 0.001, 0.003)
        values = {m["name"]: m["value"] for m in r.metrics_list()}
        assert values["w_p50_ms"] == pytest.approx(2.0)

    def test_8193rd_sample_evicts_the_oldest(self):
        r = Registry()
        r.record("w", *range(8192))
        r.record("w", 8192)
        samples = r.window_samples("w")
        assert len(samples) == 8192
        assert samples[0] == 1 and samples[-1] == 8192

    def test_disabled_drops_samples(self):
        DISABLED.record("w", 1.0)
        assert DISABLED.window_samples("w") == []
        assert DISABLED.metrics_list() == []

    def test_snapshot_is_unchanged_by_a_window(self):
        r = Registry()
        r.count("c")
        before = r.snapshot()
        r.record("w", 0.5)
        assert r.snapshot() == before
        assert set(before) == {"counters", "gauges", "histograms", "spans"}


class TestSpanNesting:
    def test_child_time_excluded_from_parent_self(self):
        r = Registry()
        with r.span("outer"):
            with r.span("inner"):
                pass
        outer, inner = r.span_stat("outer"), r.span_stat("inner")
        assert outer.count == inner.count == 1
        # outer's inclusive time covers inner entirely; its self time
        # excludes it, so the two self-times tile outer's total.
        assert outer.total_s >= inner.total_s
        assert outer.self_s + inner.total_s == pytest.approx(outer.total_s)

    def test_siblings_both_subtracted(self):
        r = Registry()
        with r.span("outer"):
            with r.span("a"):
                pass
            with r.span("b"):
                pass
        outer = r.span_stat("outer")
        child = r.span_stat("a").total_s + r.span_stat("b").total_s
        assert outer.self_s == pytest.approx(outer.total_s - child)

    def test_span_names_sorted(self):
        r = Registry()
        for name in ("b", "a", "c"):
            r.span_add(name, 0.0)
        assert r.span_names() == ["a", "b", "c"]


class TestThreadSafety:
    def test_concurrent_counts_are_exact(self):
        r = Registry()
        threads = [
            threading.Thread(
                target=lambda: [r.count("hits") for _ in range(2000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert r.counter_value("hits") == 16000

    def test_concurrent_spans_do_not_corrupt_stacks(self):
        r = Registry()

        def work(tag):
            for _ in range(200):
                with r.span(f"outer.{tag}"):
                    with r.span(f"inner.{tag}"):
                        pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            outer = r.span_stat(f"outer.{i}")
            inner = r.span_stat(f"inner.{i}")
            assert outer.count == inner.count == 200
            assert outer.total_s >= inner.total_s


class TestInstallation:
    def test_current_defaults_to_disabled(self):
        install(None)
        assert current() is DISABLED

    def test_install_and_clear(self):
        r = Registry()
        install(r)
        try:
            assert current() is r
        finally:
            install(None)
        assert current() is DISABLED

    def test_installed_context_restores_previous(self):
        outer_reg, inner_reg = Registry(), Registry()
        install(outer_reg)
        try:
            with installed(inner_reg) as got:
                assert got is inner_reg
                assert current() is inner_reg
            assert current() is outer_reg
        finally:
            install(None)

    def test_installation_is_thread_local(self):
        r = Registry()
        seen = {}

        def probe():
            seen["other"] = current()

        with installed(r):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
            assert current() is r
        assert seen["other"] is DISABLED


class TestExport:
    def test_to_bench_metrics_validates(self):
        r = Registry()
        r.count("c", 2)
        r.gauge("g", 1.0)
        r.observe("h", 0.5, edges=(1.0,))
        with r.span("s"):
            pass
        payload = r.to_bench_metrics(benchmark="unit", test="case")
        assert validate_bench_metrics(payload) == []
        assert payload["benchmark"] == "unit"
        names = {
            m["name"] for m in payload["tests"]["case"]["metrics"]
        }
        assert {"c", "g", "h_count", "s_total_s"} <= names

    def test_test_record_has_wall_time(self):
        record = Registry().test_record()
        assert record["wall_time_s"] >= 0.0
        assert record["metrics"] == []
