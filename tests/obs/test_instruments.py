"""Unit tests for the raw observability instruments."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.instruments import (
    DEFAULT_EDGES,
    MAX_SAMPLES,
    Counter,
    Gauge,
    Histogram,
    SpanStat,
    Window,
    percentile,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("hits")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_metrics_shape(self):
        c = Counter("hits")
        c.inc(3)
        assert c.metrics() == [{"name": "hits", "value": 3, "units": ""}]


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("workers")
        g.set(4.0)
        g.set(2.0)
        assert g.value == 2.0

    def test_metrics_carry_units(self):
        g = Gauge("wall", units="s")
        g.set(1.5)
        assert g.metrics() == [{"name": "wall", "value": 1.5, "units": "s"}]


class TestHistogram:
    def test_default_edges_are_strictly_increasing(self):
        assert all(a < b for a, b in zip(DEFAULT_EDGES, DEFAULT_EDGES[1:]))

    def test_rejects_empty_edges(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            Histogram("h", edges=())

    def test_rejects_non_increasing_edges(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Histogram("h", edges=(1.0, 1.0, 2.0))

    def test_observations_land_in_the_right_bucket(self):
        h = Histogram("h", edges=(1.0, 10.0))
        h.observe(0.5)   # <= 1.0
        h.observe(1.0)   # boundary is inclusive
        h.observe(5.0)   # <= 10.0
        h.observe(99.0)  # overflow
        assert h.buckets == [2, 1, 1]
        assert h.count == 4
        assert h.total == pytest.approx(105.5)
        assert h.mean == pytest.approx(105.5 / 4)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h", edges=(1.0,)).mean == 0.0

    def test_metrics_enumerate_every_bucket(self):
        h = Histogram("lat", edges=(1.0, 10.0), units="ms")
        h.observe(2.0)
        names = [m["name"] for m in h.metrics()]
        assert names == [
            "lat_count",
            "lat_total",
            "lat_mean",
            "lat_le_1",
            "lat_le_10",
            "lat_overflow",
        ]
        by_name = {m["name"]: m for m in h.metrics()}
        assert by_name["lat_total"]["units"] == "ms"
        assert by_name["lat_le_10"]["value"] == 1


class TestSpanStat:
    def test_accumulates_and_tracks_max(self):
        s = SpanStat("phase")
        s.add(0.5, 0.4)
        s.add(0.2, 0.2, count=3)
        assert s.count == 4
        assert s.total_s == pytest.approx(0.7)
        assert s.self_s == pytest.approx(0.6)
        assert s.max_s == pytest.approx(0.5)

    def test_metrics_shape(self):
        s = SpanStat("phase")
        s.add(1.0, 0.75)
        by_name = {m["name"]: m["value"] for m in s.metrics()}
        assert by_name == {
            "phase_count": 1,
            "phase_total_s": 1.0,
            "phase_self_s": 0.75,
            "phase_max_s": 1.0,
        }


class TestPercentile:
    def test_empty_reads_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample_is_every_quantile(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert percentile([7.0], q) == 7.0

    def test_odd_count_median_is_the_middle_sample(self):
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0

    def test_even_count_interpolates_linearly(self):
        assert percentile([4.0, 1.0, 2.0, 3.0], 0.5) == pytest.approx(2.5)
        # pos = 0.9 * 3 = 2.7: 70% of the way from 3.0 to 4.0.
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.9) == pytest.approx(3.7)

    def test_extremes_are_min_and_max(self):
        assert percentile([3.0, 9.0, 1.0], 0.0) == 1.0
        assert percentile([3.0, 9.0, 1.0], 1.0) == 9.0

    @pytest.mark.parametrize("q", [-0.01, 1.01])
    def test_q_outside_unit_interval_raises(self, q):
        with pytest.raises(ValueError, match="q must be in"):
            percentile([1.0, 2.0], q)


class TestWindow:
    def test_empty_window_reads_zero(self):
        assert Window("hit_latency").metrics() == [
            {"name": "hit_latency_p50_ms", "value": 0.0, "units": "ms"},
            {"name": "hit_latency_p95_ms", "value": 0.0, "units": "ms"},
            {"name": "hit_latency_p99_ms", "value": 0.0, "units": "ms"},
        ]

    def test_single_sample_exports_milliseconds(self):
        values = [m["value"] for m in Window("w", [0.002]).metrics()]
        assert values == [pytest.approx(2.0)] * 3

    def test_percentiles_interpolate(self):
        window = Window("w", [0.001, 0.002, 0.003, 0.004])
        p50, p95, p99 = (m["value"] for m in window.metrics())
        assert p50 == pytest.approx(2.5)
        assert p95 == pytest.approx(3.85)
        assert p99 == pytest.approx(3.97)

    def test_fifo_cap_evicts_the_oldest(self):
        window = Window("w", range(MAX_SAMPLES))
        assert len(window.samples) == MAX_SAMPLES
        window.samples.append(MAX_SAMPLES)
        assert len(window.samples) == MAX_SAMPLES
        assert window.samples[0] == 1
        assert window.samples[-1] == MAX_SAMPLES
