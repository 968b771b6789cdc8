"""The traced run: per-layer metrics measured from outside the program.

Every workload's traced run calls :func:`probe_all` with its own inputs
(kernel cells, query bodies, scenario documents).  Each probe times
calls into one layer's public functions, or reads the ``repro.obs``
spans and counters the program already exports
(``simulate(..., obs=Registry(sample=1))`` and ``GET /v1/metrics``), so
the program itself is never edited.  Metric names are the layer's
module path; the map from each to the end-to-end metric it should move
is in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

from .common import ROOT, Run
from .loadgen import HttpSender
from .server import Server
from .stats import LAYER_SUM_TOLERANCE, gather, layer_sum

#: Kernel self-time layers: metric name -> obs span names it sums.  The
#: engine exports these self times as a tiling of its event loop; the
#: layer-sum check asks them alone to cover the traced wall.
KERNEL_LAYERS = {
    "sim.engine.release_scan_s": ("kernel.release_scan",),
    "sim.engine.boundary_s": ("kernel.boundary_handle", "kernel.boundary_scan"),
    "sim.engine.advance_s": ("kernel.advance",),
    "schedulers.dispatch_s": ("kernel.dispatch",),
    "sim.speed_control.ramp_s": ("kernel.speed_ramp",),
    "sim.sleep_control.sleep_s": ("kernel.sleep",),
}

#: kernel.run's own self time: set-up, finalisation and loop glue.  The
#: engine computes it as the kernel wall minus the loop phases, so it is
#: reported but kept out of the layer sum, which it would close by
#: construction.
KERNEL_OTHER = ("sim.engine.other_s", "kernel.run")

#: Blocking path of one cold miss served over HTTP, in request order.
MISS_PATH = (
    "service.server.edge",
    "service.query.parse",
    "service.fingerprint",
    "service.broker.cache_lookup",
    "service.broker.dedupe",
    "service.broker.queue_wait",
    "service.broker.dispatch",
    "service.results.encode",
    "service.cache.put",
)

#: The broker's own spans on that path, as ``/v1/metrics`` names them.
BROKER_SPANS = {
    "service.broker.cache_lookup": "cache_lookup",
    "service.broker.dedupe": "dedupe",
    "service.broker.queue_wait": "batch_window",
    "service.broker.dispatch": "dispatch",
    "service.results.encode": "serialize",
}

#: Cells run on the fast path to measure how many it forwards.
FASTPATH_SAMPLE = 6
#: Cold misses sent one at a time for the miss layer-sum check.
MISS_PROBES = 6
#: Warm hits timed over HTTP and in process for the edge cost.
HIT_PROBES = 60


def _ms(seconds: float) -> float:
    return seconds * 1e3


def simulate_traced(cell, obs):
    """``RunSpec.run`` on the exact path, with the kernel's obs enabled."""
    from repro.faults.layer import FaultLayer
    from repro.sim.engine import simulate

    faults = cell.faults
    if faults is not None and not isinstance(faults, FaultLayer):
        faults = faults()
    return simulate(
        cell.taskset, cell.build_scheduler(), spec=cell.spec,
        execution_model=cell.execution_model, duration=cell.duration,
        seed=cell.seed, on_miss=cell.on_miss,
        scheduler_overhead=cell.scheduler_overhead, faults=faults,
        record_trace=cell.record_trace, obs=obs,
    )


def kernel_probe(run: Run, cells: Sequence, groups: Sequence[Sequence[int]]) -> list:
    """Kernel and runner layers on *cells*, run in *groups* via run_many.

    Each group runs untraced (``run_many(jobs=1)``, as the timed run
    does), then each of its cells again through ``simulate`` with an
    exact ``Registry(sample=1)``; interleaving keeps host drift out of
    the tracing overhead.  Returns the untraced results.
    """
    from repro.experiments.runner import run_many
    from repro.obs.registry import Registry

    results: List[Any] = [None] * len(cells)
    runner_overhead: List[float] = []
    spans: Dict[str, float] = {}
    counts = {"iterations": 0, "decisions": 0, "ramps": 0}
    traced_wall = 0.0
    for group in groups:
        t0 = time.perf_counter()
        out = run_many([cells[i] for i in group], jobs=1)
        wall = time.perf_counter() - t0
        runner_overhead.append(wall - sum(r.metadata["cell_wall_s"] for r in out))
        for i, plain in zip(group, out):
            results[i] = plain
            registry = Registry(sample=1)
            t0 = time.perf_counter()
            traced = simulate_traced(cells[i], registry)
            traced_wall += time.perf_counter() - t0
            run.check("traced cell equals untraced cell",
                      traced.energy.total == plain.energy.total
                      and traced.jobs_completed == plain.jobs_completed)
            snap = registry.snapshot()
            for name, stat in snap["spans"].items():
                spans[name] = spans.get(name, 0.0) + stat["self_s"]
            counters = snap["counters"]
            counts["iterations"] += counters.get("kernel.iterations", 0)
            counts["decisions"] += sum(v for k, v in counters.items()
                                       if k.startswith("sched.decisions."))
            counts["ramps"] += counters.get("kernel.boundary.ramp", 0)
    untraced = sum(r.metadata["cell_wall_s"] for r in results)

    kernel = gather(spans, KERNEL_LAYERS)
    for name, value in kernel.items():
        run.metric(name, value, "s")
    other, span = KERNEL_OTHER
    if span in spans:
        run.metric(other, spans[span], "s")
    run.metric("sim.engine.iterations", counts["iterations"], "count")
    run.metric("schedulers.decisions", counts["decisions"], "count")
    run.metric("sim.speed_control.ramps", counts["ramps"], "count")
    jobs = sum(r.jobs_completed for r in results)
    run.metric("sim.engine.host_ns_per_job", untraced / max(jobs, 1) * 1e9, "ns")
    run.metric("experiments.runner.overhead_ms",
               _ms(sum(runner_overhead) / len(runner_overhead)), "ms")
    run.metric("trace.overhead_pct", (traced_wall / untraced - 1.0) * 100.0, "%")
    summed = layer_sum(kernel, traced_wall, list(KERNEL_LAYERS))
    run.metric("trace.kernel_layer_sum_ratio", summed["ratio"], "ratio")
    run.check("kernel layers without kernel.run's self time sum to the traced "
              "wall within 10%", summed["ok"], ratio=summed["ratio"],
              missing=summed["missing"])
    run.metric("faults.injections",
               sum(len(r.fault_events) for r in results), "count")
    return results


def pool_probe(run: Run, pair: Sequence) -> None:
    """What a process pool adds to a two-cell batch beyond its longest cell.

    The broker dispatches every multi-cell batch through a fresh pool,
    so this is the fixed cost each such batch pays.
    """
    from repro.experiments.runner import run_many

    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = run_many(list(pair), jobs=2)
        wall = time.perf_counter() - t0
        samples.append(wall - max(r.metadata["cell_wall_s"] for r in out))
    run.metric("experiments.runner.pool_overhead_ms", _ms(median(samples)), "ms")


def query_body(cell) -> Dict[str, Any]:
    """A cell spelled as a ``POST /v1/query`` energy request (inline, µs)."""
    from repro.tasks.generation import WcetModel

    tasks = [
        {"name": t.name, "wcet": t.wcet, "period": t.period,
         "deadline": t.deadline, "bcet": t.bcet, "phase": t.phase,
         "priority": t.priority}
        for t in cell.taskset.tasks
    ]
    scheduler = cell.scheduler if isinstance(cell.scheduler, str) else "fps"
    return {
        "kind": "energy", "tasks": tasks, "scheduler": scheduler,
        "seed": cell.seed, "duration": cell.duration,
        "execution": "wcet" if isinstance(cell.execution_model, WcetModel)
        else "gaussian",
    }


def scenario_doc(app: str, seed: int) -> Dict[str, Any]:
    """One paper application as a ``repro/scenario/v1`` document."""
    from repro.experiments.runner import measurement_duration
    from repro.workloads.registry import get_workload

    taskset = get_workload(app).taskset
    return {
        "schema": "repro/scenario/v1",
        "name": f"fig8-{app}",
        "time_unit": "us",
        "priorities": "rate_monotonic",
        "tasks": [{"name": t.name, "wcet": t.wcet, "period": t.period}
                  for t in taskset.tasks],
        "processor": {"name": "arm8"},
        "execution": {"model": "gaussian", "bcet_ratio": 0.5},
        "campaign": {"schedulers": ["fps", "lpfps"], "seeds": [seed],
                     "duration": measurement_duration(taskset)},
    }


def query_probe(run: Run, work: Path, bodies: Sequence[Dict[str, Any]],
                results: Sequence) -> Dict[str, float]:
    """parse, fingerprint, encode and the two-tier cache, in process."""
    from repro.service.cache import ResultCache
    from repro.service.fingerprint import fingerprint
    from repro.service.query import parse_query
    from repro.service.results import encode_result

    parse, fp, encode, put, get = [], [], [], [], []
    cache = ResultCache(memory_items=1024, disk_dir=work / "probe_cache")
    for body, result in zip(bodies, results):
        t0 = time.perf_counter()
        query = parse_query(body)
        t1 = time.perf_counter()
        key = fingerprint(query)
        t2 = time.perf_counter()
        payload = encode_result(query, result)
        t3 = time.perf_counter()
        cache.put(key, payload)
        t4 = time.perf_counter()
        hit = cache.get(key)
        t5 = time.perf_counter()
        run.check("cache returns what was put", hit == payload)
        parse.append(t1 - t0)
        fp.append(t2 - t1)
        encode.append(t3 - t2)
        put.append(t4 - t3)
        get.append(t5 - t4)
    mean = {name: sum(v) / len(v) for name, v in
            (("parse", parse), ("fp", fp), ("encode", encode), ("put", put),
             ("get", get))}
    run.metric("service.query.parse_us", mean["parse"] * 1e6, "us")
    run.metric("service.fingerprint.us", mean["fp"] * 1e6, "us")
    run.metric("service.results.encode_ms", _ms(mean["encode"]), "ms")
    run.metric("service.cache.put_ms", _ms(mean["put"]), "ms")
    run.metric("service.cache.lookup_us", mean["get"] * 1e6, "us")
    return mean


def durable_probe(run: Run, work: Path, cells: Sequence, results: Sequence,
                  docs: Sequence[Dict[str, Any]]) -> None:
    """Scenario parsing, the cell journal, the event log and the scrubs.

    The scrubs run over the cache :func:`query_probe` wrote and the
    journal and event log this probe writes.
    """
    from repro.experiments.checkpoint import (
        CheckpointJournal, scrub_journal, spec_fingerprint,
    )
    from repro.scenarios import parse_scenario
    from repro.service.cache import scrub_cache
    from repro.service.durability import CampaignStore
    from repro.service.stream import sse_render

    parse = []
    for doc in docs:
        t0 = time.perf_counter()
        parse_scenario(doc).fingerprint()
        parse.append(time.perf_counter() - t0)
    run.metric("scenarios.parse_ms", _ms(sum(parse) / len(parse)), "ms")

    ckpt = work / "probe_checkpoint"
    journal = CheckpointJournal(ckpt)
    store = CampaignStore(ckpt)
    commit, append = [], []
    try:
        for i, (cell, result) in enumerate(zip(cells, results)):
            key = spec_fingerprint(cell) or f"cell-{i}"
            t0 = time.perf_counter()
            journal.record(key, result)
            commit.append(time.perf_counter() - t0)
            event = {"seq": i + 1, "kind": "cell",
                     "data": {"cell": i, "average_power": result.average_power,
                              "jobs_completed": result.jobs_completed}}
            t0 = time.perf_counter()
            ok = store.append_event("probe", event)
            append.append(time.perf_counter() - t0)
            run.check("event log append accepted", ok)
    finally:
        journal.close()
        store.close()
    run.metric("experiments.checkpoint.commit_ms",
               _ms(sum(commit) / len(commit)), "ms")
    run.metric("service.durability.append_ms", _ms(sum(append) / len(append)), "ms")

    t0 = time.perf_counter()
    replayed = CampaignStore(ckpt).load_events("probe")
    frames = [sse_render(e) for e in replayed]
    run.metric("service.stream.replay_ms", _ms(time.perf_counter() - t0), "ms")
    run.check("replayed event log is complete and gapless",
              [e["seq"] for e in replayed] == list(range(1, len(results) + 1))
              and len(frames) == len(results))

    for name, scrub, clean in (
        ("service.cache.scrub_ms", lambda: scrub_cache(work / "probe_cache"),
         lambda report: report.clean),
        ("experiments.checkpoint.scrub_ms", lambda: scrub_journal(ckpt),
         lambda report: report.clean),
        ("service.durability.scrub_ms", lambda: CampaignStore(ckpt).scrub(),
         lambda report: not report["problems"]),
    ):
        t0 = time.perf_counter()
        report = scrub()
        run.metric(name, _ms(time.perf_counter() - t0), "ms")
        run.check(f"{name[:-3]} finds nothing to repair", clean(report))


def fastpath_probe(run: Run, cells: Sequence) -> None:
    """Share of cells the fast path forwards (the rest fall back to exact)."""
    sample = list(cells)[:: max(1, len(cells) // FASTPATH_SAMPLE)][:FASTPATH_SAMPLE]
    paths = [dataclasses.replace(c, execution="fast").run()
             .metadata["execution_path"] for c in sample]
    run.metric("sim.fastpath.forwarded_ratio",
               sum(p == "fast-forward" for p in paths) / len(paths), "ratio")


def metrics_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0.0) for k in after}


def _per(delta: Dict[str, float], total: str, count: str) -> float:
    n = delta.get(count, 0.0)
    return delta.get(total, 0.0) / n if n else 0.0


def broker_metrics(run: Run, delta: Dict[str, float]) -> None:
    """Broker and cache figures from a ``/v1/metrics`` before/after delta."""
    requests = delta.get("requests", 0.0)
    run.metric("service.cache.hit_ratio",
               delta.get("cache_hits", 0.0) / requests if requests else 0.0, "ratio")
    attached = delta.get("dedup_hits", 0.0)
    misses = attached + delta.get("dispatched", 0.0)
    run.metric("service.broker.dedupe_ratio",
               attached / misses if misses else 0.0, "ratio")
    batches = delta.get("batches", 0.0)
    run.metric("service.broker.batch_size_mean",
               delta.get("batched_cells", 0.0) / batches if batches else 0.0,
               "count")
    run.metric("service.broker.queue_wait_ms", _ms(_per(
        delta, "broker.batch_window_total_s", "broker.batch_window_count")), "ms")
    run.metric("service.broker.dispatch_ms", _ms(_per(
        delta, "broker.dispatch_total_s", "broker.dispatch_count")), "ms")
    run.metric("service.broker.shed", delta.get("shed", 0.0), "count")


def http_probe(run: Run, server: Server, bodies: Sequence[Dict[str, Any]],
               in_process: Dict[str, float], doc: Dict[str, Any],
               traffic: bool) -> None:
    """Edge cost, the cold-miss layer sum, and first-event latency.

    Sends :data:`MISS_PROBES` cold misses one at a time and reads the
    broker's spans around each; then times warm hits over HTTP (on fresh
    connections and, alternately, on one kept-alive connection) and in
    process.  With *traffic* true the broker figures come from this
    probe (the workload sent no other queries).
    """
    from repro.service.client import ServiceClient
    from repro.service.server import ScheduleService

    send = HttpSender(server.url)
    reuse = HttpSender(server.url, keep_alive=True)
    try:
        before = server.metrics()
        misses, deltas = [], []
        for body in bodies[:MISS_PROBES]:
            m0 = server.metrics()
            t0 = time.perf_counter()
            status, payload = send(body)
            misses.append(time.perf_counter() - t0)
            deltas.append(metrics_delta(m0, server.metrics()))
            run.check("probe miss answered", status == 200 and payload.get("ok"))
        if traffic:
            broker_metrics(run, metrics_delta(before, server.metrics()))
        hot = bodies[0]
        http_hits, reused_hits = [], []
        for _ in range(HIT_PROBES):
            for sender, samples in ((send, http_hits), (reuse, reused_hits)):
                t0 = time.perf_counter()
                sender(hot)
                samples.append(time.perf_counter() - t0)
    finally:
        send.close()
        reuse.close()

    service = ScheduleService(cache_dir=None, jobs=1)
    try:
        service.query_dict(hot)
        local_hits = []
        for _ in range(HIT_PROBES):
            t0 = time.perf_counter()
            service.query_dict(hot)
            local_hits.append(time.perf_counter() - t0)
    finally:
        service.close()
    edge = median(http_hits) - median(local_hits)
    run.metric("service.server.edge_ms", _ms(edge), "ms")
    run.metric("service.hit_latency_p50_ms", _ms(median(http_hits)), "ms")
    # What reusing one connection adds to a hit: the server writes
    # headers and body in two sends, so on a kept-alive connection the
    # body can wait for the client's delayed ACK (Nagle).
    run.metric("service.server.keepalive_stall_ms",
               _ms(median(reused_hits) - median(http_hits)), "ms")
    run.metric("service.miss_latency_p50_ms", _ms(median(misses)), "ms")

    ratios = []
    for wall, delta in zip(misses, deltas):
        path = gather(delta, {layer: (f"broker.{span}_total_s",)
                              for layer, span in BROKER_SPANS.items()})
        path.update({
            "service.server.edge": edge,
            "service.query.parse": in_process["parse"],
            "service.fingerprint": in_process["fp"],
            "service.cache.put": in_process["put"],
        })
        ratios.append(layer_sum(path, wall, MISS_PATH))
    ratio = median([r["ratio"] for r in ratios])
    missing = sorted({name for r in ratios for name in r["missing"]})
    run.metric("trace.miss_layer_sum_ratio", ratio, "ratio")
    run.check("cold-miss layers sum to the client latency within 10%",
              not missing and abs(ratio - 1.0) <= LAYER_SUM_TOLERANCE,
              ratio=ratio, missing=missing)

    client = ServiceClient(server.url)
    t0 = time.perf_counter()
    first = None
    for event in client.resume_scenario({"scenario": doc, "execution": "fast"}):
        if first is None and event["kind"] == "cell":
            first = time.perf_counter() - t0
    run.check("probe campaign streamed a cell", first is not None)
    run.metric("scenarios.first_event_ms", _ms(first or 0.0), "ms")


def probe_all(run: Run, work: Path, cells: Sequence,
              groups: Sequence[Sequence[int]], bodies: Sequence[Dict[str, Any]],
              docs: Sequence[Dict[str, Any]], server: Optional[Server] = None) -> None:
    """Every per-layer metric, on one workload's inputs.

    Without a *server* the probe spawns its own ``lpfps serve`` and the
    broker figures come from the probe's own queries.
    """
    results = kernel_probe(run, cells, groups)
    pool_probe(run, [cells[i] for i in groups[0]])
    in_process = query_probe(run, work, bodies, results)
    durable_probe(run, work, cells, results, docs)
    fastpath_probe(run, cells)
    own = server is None
    if own:
        server = Server(ROOT, work, ["--cache-dir", str(work / "probe_served")])
    try:
        http_probe(run, server, bodies, in_process, docs[0], traffic=own)
    finally:
        if own:
            server.stop()


def cleanup(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
