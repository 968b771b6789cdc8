"""Unified observability: spans, counters, gauges, histograms, manifests.

The obs layer answers "where did the time (and simulated energy) go?"
for every hot layer of the system with zero external dependencies:

* the simulation kernel profiles its event-loop phases (release scan,
  dispatch, speed-ramp, sleep) into a per-run :class:`Registry` —
  disabled by default so golden traces stay bit-identical, sampled when
  always-on, exact under ``lpfps profile``;
* the campaign executor (:func:`repro.experiments.runner.run_many`)
  gauges resolved worker counts and per-cell wall times into the
  thread-locally :func:`installed <installed>` registry;
* the service broker times its stages (cache lookup, dedupe, batch
  window, dispatch, serialize), counts its requests and keeps its
  latency windows in a long-lived registry — with the result cache's
  counters beside them — surfaced whole by ``GET /v1/metrics``.

Everything serialises to the repo-wide **bench-metrics/v1** schema
(:mod:`repro.obs.schema`), so profiler output, campaign manifests, and
scraped service metrics all land in the same machine-readable shape as
the committed ``benchmarks/out/*.json`` baselines the CI perf gate
compares against.
"""

from .instruments import (
    DEFAULT_EDGES,
    Counter,
    Gauge,
    Histogram,
    SpanStat,
    Window,
    percentile,
)
from .registry import (
    DEFAULT_SAMPLE,
    DISABLED,
    Registry,
    current,
    install,
    installed,
)
from .schema import BENCH_SCHEMA, bench_metrics_payload, validate_bench_metrics

__all__ = [
    "BENCH_SCHEMA",
    "Counter",
    "DEFAULT_EDGES",
    "DEFAULT_SAMPLE",
    "DISABLED",
    "Gauge",
    "Histogram",
    "Registry",
    "SpanStat",
    "Window",
    "bench_metrics_payload",
    "current",
    "install",
    "installed",
    "percentile",
    "validate_bench_metrics",
]
