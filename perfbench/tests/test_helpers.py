"""Tests for the benchmark's own helpers (no server, no kernel runs).

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from perfbench.loadgen import closed_loop, open_loop  # noqa: E402
from perfbench.service_mix import BLOCK, FRESH, HOT, Mix, open_schedule  # noqa: E402
from perfbench.stats import (  # noqa: E402
    InsufficientSamples, check_digest, digest, gather, layer_sum, percentile,
)


class FakeClock:
    """A clock that only moves when someone sleeps or a fake send runs."""

    def __init__(self):
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            return self.now

    def advance(self, dt):
        with self.lock:
            self.now += max(dt, 0.0)


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(99)), 0.9)
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 12, 0.99)
    assert percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 0.5)


def test_due_time_latency_includes_the_wait_a_stall_imposes():
    clock = FakeClock()
    service_s = {0: 1.0}  # request 0 stalls the only worker for a second

    def factory():
        def send(body):
            clock.advance(service_s.get(body["i"], 0.01))
            return 200, {"ok": True}
        return send

    requests = [{"i": i} for i in range(5)]
    offsets = [i * 0.1 for i in range(5)]
    outcomes = open_loop(requests, offsets, factory, workers=1,
                         clock=clock, sleep=clock.advance)
    assert [o.index for o in outcomes] == list(range(5))
    assert outcomes[0].latency == pytest.approx(1.0)
    # Request 1 was due at 0.1 s but could only go out at 1.0 s: its
    # latency counts that wait, and the generator reports it as lag.
    assert outcomes[1].lag == pytest.approx(0.9)
    assert outcomes[1].latency == pytest.approx(0.91)
    # Timing from the send instead would have hidden the stall.
    assert outcomes[1].done - outcomes[1].sent == pytest.approx(0.01)
    assert all(o.latency > 0.5 for o in outcomes[1:])


def test_closed_loop_counts_only_requests_sent_before_the_deadline():
    clock = FakeClock()

    def factory():
        def send(body):
            clock.advance(0.25)
            return 200, {"ok": True}
        return send

    outcomes, wall = closed_loop(lambda i: {"i": i}, 1.0, factory, workers=1,
                                 clock=clock)
    assert len(outcomes) == 4
    assert wall == pytest.approx(1.0)


def test_digest_check_trips_on_a_perturbed_output():
    points = [{"ratio": 0.5, "fps": repr(0.7368613719291554)}]
    pinned = digest(points)
    assert check_digest("ref", points, pinned)["ok"]
    perturbed = [{"ratio": 0.5, "fps": repr(0.7368613719291555)}]
    row = check_digest("ref", perturbed, pinned)
    assert not row["ok"] and row["actual"] != pinned


def test_layer_sum_trips_on_a_missing_layer():
    layers = {"a": 0.6, "b": 0.38}
    assert layer_sum(layers, 1.0, ["a", "b"])["ok"]
    missing = layer_sum({"a": 0.6}, 0.6, ["a", "b"])
    assert not missing["ok"] and missing["missing"] == ["b"]
    assert not layer_sum(layers, 1.5, ["a", "b"])["ok"]  # 35% short


def test_a_dropped_source_span_reads_as_a_missing_layer_not_zero():
    mapping = {"scan": ("kernel.scan",), "boundary": ("kernel.handle", "kernel.edge")}
    spans = {"kernel.scan": 0.5, "kernel.handle": 0.3, "kernel.edge": 0.2}
    assert gather(spans, mapping) == {"scan": 0.5, "boundary": 0.5}
    assert layer_sum(gather(spans, mapping), 1.0, list(mapping))["ok"]
    del spans["kernel.edge"]  # renamed or no longer exported
    row = layer_sum(gather(spans, mapping), 0.5, list(mapping))
    assert not row["ok"] and row["missing"] == ["boundary"]


def test_mix_blocks_have_a_fixed_shape_and_are_seeded():
    mix = Mix(seed=7, phase=1)
    block = [mix.request(i) for i in range(BLOCK)]
    tags = [tag for tag, _ in block]
    assert tags.count("hit") == HOT and tags.count("miss") == FRESH
    assert tags.count("dup") == 1 and tags.count("analytic") == 1
    dup = tags.index("dup")
    assert tags[dup - 1] == "miss" and block[dup][1] == block[dup - 1][1]
    assert [mix.request(i) for i in range(BLOCK)] == block
    assert Mix(seed=8, phase=1).request(0) != block[0] or \
        [Mix(seed=8, phase=1).request(i) for i in range(BLOCK)] != block


def test_open_schedule_gives_a_duplicate_its_miss_due_time():
    tags, bodies, offsets = open_schedule(Mix(seed=3, phase=1), 2.0, 10.0)
    assert len([t for t in tags if t != "dup"]) == 20
    assert offsets == sorted(offsets)
    for k, tag in enumerate(tags):
        if tag == "dup":
            assert offsets[k] == offsets[k - 1]
