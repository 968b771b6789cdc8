"""Workload ``service-mix``: mixed query traffic against ``lpfps serve``.

The server runs as a subprocess with a ``--cache-dir`` and one worker
per CPU.  The benchmark's own single-process client sends a seeded mix,
in blocks of 20 requests, each shuffled but always of the same make-up:

* 14 repeats of an 8-query hot set (cache hits; warmed before timing);
* 4 fresh Gaussian ``energy`` queries, one per paper application
  (cold misses); one in four is spelled as inline ``tasks`` in ms;
* 1 back-to-back duplicate of a fresh miss, sent while it is in flight
  (broker dedupe);
* 1 ``rta`` or ``schedulability`` query.

First a closed loop with ``nproc`` clients (capacity), then an open loop
offered :data:`OPEN_RATE_SHARE` of the capacity just measured (latency
timed from each request's due time).  Every request goes out on a fresh
connection, as ``ServiceClient`` sends it.
"""

from __future__ import annotations

import json
import os
import random
from statistics import median
from typing import Any, Dict, List, Tuple

from . import layers
from .common import ROOT, Run, SpeedProbe, workdir
from .loadgen import HttpSender, closed_loop, open_loop
from .server import Server
from .stats import InsufficientSamples, canonical_json, percentile

APPS = ("avionics", "ins", "flight_control", "cnc")
POLICIES = ("fps", "lpfps")
RATIOS = tuple(round(0.1 * k, 1) for k in range(1, 11))

#: Offered rate of the open-loop phase as a share of the closed loop's
#: measured capacity.  A miss runs on the server's dispatcher thread and
#: slows every hit that overlaps it; at half the capacity about half of
#: all requests are misses or overlap one, and the median flips between
#: plain and slowed hits from one run to the next.
OPEN_RATE_SHARE = 0.2
#: Share of ``--seconds`` spent in the open loop, whose figures are only
#: notes; the closed loop, which gives the gated rates, gets the rest.
OPEN_SHARE = 0.25
#: Spawns timed for ``setup_s``; the last one serves the traffic.
SETUP_REPEATS = 15
#: Fresh misses re-computed in process to check the served answers.
VERIFY_SAMPLE = 4

BLOCK = 20
HOT, FRESH = 14, 4


def _inline_ms(app: str) -> List[Dict[str, Any]]:
    from repro.workloads.registry import get_workload

    return [
        {"name": t.name, "wcet": t.wcet / 1e3, "period": t.period / 1e3,
         "deadline": t.deadline / 1e3, "phase": t.phase / 1e3}
        for t in get_workload(app).taskset.tasks
    ]


class Mix:
    """The seeded request stream of one phase; request *i* is a pure
    function of ``(seed, phase, i)``."""

    def __init__(self, seed: int, phase: int):
        self.seed, self.phase = seed, phase
        self._blocks: Dict[int, Tuple[Tuple[str, str], ...]] = {}

    def hot_set(self) -> List[Dict[str, Any]]:
        return [
            {"kind": "energy", "app": app, "scheduler": policy,
             "seed": self.seed, "bcet_ratio": 0.5}
            for app in APPS for policy in POLICIES
        ]

    def fresh(self, block: int, j: int, app: str) -> Dict[str, Any]:
        # Policy and BCET ratio, which set a miss's cost, follow the
        # application and the block instead of being drawn, so every run
        # carries the same mix of miss costs; the seed sets the draws.
        k = APPS.index(app)
        body: Dict[str, Any] = {
            "kind": "energy", "scheduler": POLICIES[(block + k) % len(POLICIES)],
            # Unique per (run seed, phase, block, slot): always a miss.
            "seed": (self.seed * 8 + self.phase) * 1_000_000 + block * FRESH + j,
            "bcet_ratio": RATIOS[(block + 3 * k) % len(RATIOS)],
        }
        if j == 0:
            body.update(tasks=_inline_ms(app), time_unit="ms")
        else:
            body["app"] = app
        return body

    def block(self, b: int) -> Tuple[Tuple[str, str], ...]:
        if b not in self._blocks:
            self._blocks[b] = self._make_block(b)
        return self._blocks[b]

    def _make_block(self, b: int) -> Tuple[Tuple[str, str], ...]:
        rng = random.Random(f"{self.seed}/{self.phase}/{b}")
        hot = self.hot_set()
        apps = list(APPS)
        rng.shuffle(apps)
        misses = [self.fresh(b, j, app) for j, app in enumerate(apps)]
        # The duplicated miss's application cycles with the block, so every
        # run duplicates the same mix of miss costs.
        duplicated = misses[apps.index(APPS[b % len(APPS)])]
        items: List[Tuple[str, Dict[str, Any]]] = (
            [("hit", rng.choice(hot)) for _ in range(HOT)]
            + [("miss", body) for body in misses]
            + [("analytic", {"kind": rng.choice(("rta", "schedulability")),
                             "app": rng.choice(APPS),
                             "bcet_ratio": rng.choice(RATIOS)})]
        )
        rng.shuffle(items)
        at = next(k for k, (_, body) in enumerate(items) if body is duplicated)
        items.insert(at + 1, ("dup", duplicated))
        # Bodies are stored as JSON so callers can never mutate the cache.
        return tuple((tag, json.dumps(body)) for tag, body in items)

    def request(self, i: int) -> Tuple[str, Dict[str, Any]]:
        tag, body = self.block(i // BLOCK)[i % BLOCK]
        return tag, json.loads(body)


def open_schedule(mix: Mix, seconds: float, rate: float):
    """Tags, bodies and due offsets; a duplicate shares its miss's slot."""
    tags, bodies, offsets = [], [], []
    slot = 0
    i = 0
    while slot < seconds * rate:
        tag, body = mix.request(i)
        if tag != "dup":
            slot += 1
        tags.append(tag)
        bodies.append(body)
        offsets.append((slot - 1) / rate)
        i += 1
    return tags, bodies, offsets


def _tail(run: Run, name: str, samples: List[float]) -> None:
    """Note the highest of p99/p95/p90 the sample supports."""
    for q in (0.99, 0.95, 0.9):
        try:
            value = percentile(samples, q) * 1e3
            run.notes[f"{name}_p{int(q * 100)}_ms"] = round(value, 3)
            return
        except InsufficientSamples:
            continue


def verify(run: Run, sent: List[Tuple[str, Dict[str, Any], Any]], seed: int) -> None:
    """Repeated fingerprints agree; a sample of misses equals in-process."""
    from repro.service.fingerprint import fingerprint
    from repro.service.query import parse_query
    from repro.service.results import execute_query

    by_key: Dict[str, str] = {}
    mismatched = 0
    for tag, body, outcome in sent:
        ok = outcome.status == 200 and outcome.payload.get("ok") is True
        if not ok:
            run.failed += 1
            continue
        key = fingerprint(parse_query(body))
        text = canonical_json(outcome.payload)
        if by_key.setdefault(key, text) != text:
            mismatched += 1
    run.failed += mismatched
    run.check("repeated fingerprints return identical payloads", mismatched == 0,
              fingerprints=len(by_key))
    misses = [(body, o) for tag, body, o in sent if tag == "miss" and o.status == 200]
    rng = random.Random(seed)
    for body, outcome in rng.sample(misses, min(VERIFY_SAMPLE, len(misses))):
        local = json.loads(json.dumps(execute_query(parse_query(body))))
        run.check("served miss equals in-process execute_query",
                  canonical_json(local) == canonical_json(outcome.payload))


def run(seed: int, seconds: float, trace: bool) -> Run:
    result = Run()
    work = workdir("service-mix")
    workers = os.cpu_count() or 1
    server = None
    try:
        starts = []
        for k in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            # Sampled with no server running and once the new one is idle.
            with SpeedProbe().around(bursts=5) as probe:
                server = Server(ROOT, work, ["--cache-dir", str(work / f"cache{k}")])
            starts.append(server.start_s * probe.scale)
        result.metric("setup_s", median(starts), "s")

        warm = HttpSender(server.url)
        try:
            for body in Mix(seed, 0).hot_set():
                status, _ = warm(body)
                result.check("hot set warmed", status == 200)
        finally:
            warm.close()

        before = server.metrics()
        factory = lambda: HttpSender(server.url)  # noqa: E731
        open_mix, closed_mix = Mix(seed, 1), Mix(seed, 2)
        open_s = seconds * OPEN_SHARE
        cpu0 = server.cpu_s()
        closed, closed_wall = closed_loop(
            lambda i: closed_mix.request(i)[1], seconds - open_s, factory, workers)
        closed_cpu = server.cpu_s() - cpu0
        capacity = len(closed) / closed_wall
        offered = capacity * OPEN_RATE_SHARE
        tags, bodies, offsets = open_schedule(open_mix, open_s, offered)
        with SpeedProbe().around() as open_probe:
            opened = open_loop(bodies, offsets, factory, workers)
        after = server.metrics()

        sent = [(t, b, o) for t, b, o in zip(tags, bodies, opened)]
        sent += [(*closed_mix.request(o.index), o) for o in closed]
        result.attempted += len(sent)
        verify(result, sent, seed)

        latency = [o.latency for o in opened]
        by_tag = {tag: [o.latency for t, _, o in sent[:len(opened)] if t == tag]
                  for tag in ("hit", "miss")}
        result.metric("peak_rss_mb", server.peak_rss_mb(), "MiB")
        # The gated rates are per CPU second of the server (and its pool
        # workers), so a neighbour that takes the CPU away does not read as
        # slow code.  They are not quoted at the reference clock: the speed
        # probe, sampled on an idle host, follows the single-core clock,
        # which did not track the server's rate with both CPUs busy (see
        # README).  Latencies use the probe sampled around the open loop.
        sim_us = sum(o.payload.get("duration", 0.0) for t, _, o in sent[len(opened):]
                     if t == "miss")
        open_scale = open_probe.scale
        result.metric("sim_us_per_s", sim_us / closed_cpu, "us/s")
        result.metric("ops_per_s", len(closed) / closed_cpu, "1/s")
        _tail(result, "raw_latency", latency)
        for tag, samples in by_tag.items():
            result.notes[f"{tag}_latency_p50_ms"] = round(median(samples) * 1e3, 3)
        lag = [o.lag for o in opened]
        # The open loop's size follows the measured capacity, so on a slow
        # host it may be too small for a p90.
        for q in (0.5, 0.9):
            try:
                value = percentile(latency, q) * 1e3 * open_scale
            except InsufficientSamples:
                value = "too few samples"
            result.notes[f"latency_p{int(q * 100)}_ms"] = value
        result.notes.update(
            open_requests=len(opened), offered_rps=round(offered, 3),
            generator_lag_p50_ms=round(median(lag) * 1e3, 3),
            generator_lag_max_ms=round(max(lag) * 1e3, 3),
            closed_requests=len(closed), closed_clients=workers,
            open_scale=round(open_scale, 4),
            capacity_rps=round(capacity, 3), closed_server_cpu_s=round(closed_cpu, 3),
        )

        if trace:
            layers.broker_metrics(result, layers.metrics_delta(before, after))
            from repro.service.query import parse_query

            unsent = Mix(seed, 3)
            fresh = [body for tag, body in (unsent.request(i) for i in range(60))
                     if tag == "miss"][:8]
            cells = [parse_query(body).to_runspec() for body in fresh]
            groups = [[i, i + 1] for i in range(0, len(cells) - 1, 2)]
            docs = [layers.scenario_doc(app, seed) for app in APPS]
            layers.probe_all(result, work, cells, groups, fresh, docs, server=server)
    finally:
        if server is not None:
            server.stop()
        layers.cleanup(work)
    return result
