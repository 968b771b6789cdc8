"""The observability primitives: counters, gauges, histograms, span stats
and sample windows.

Instruments are plain accumulator objects with no locking of their own —
the owning :class:`~repro.obs.registry.Registry` serialises access, so a
single uncontended lock acquisition covers every update.  They know how
to render themselves into the repo-wide **bench-metrics/v1** metric
shape (``{name, value, units}`` entries, see :mod:`repro.obs.schema`),
which keeps one serialisation path for the kernel profiler, the campaign
runner, and the service ``/v1/metrics`` endpoint.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..errors import ConfigurationError

#: Default histogram bucket edges, in seconds — spanning one µs-scale
#: cache probe to a minutes-long campaign cell on a log-ish grid.
DEFAULT_EDGES: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0
)

#: Samples a :class:`Window` retains; older ones are dropped FIFO so a
#: long-lived server reports recent behaviour.
MAX_SAMPLES = 8192


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) of *samples* by linear interpolation."""
    if not samples:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def metrics(self) -> List[Dict[str, Any]]:
        return [{"name": self.name, "value": self.value, "units": ""}]


class Gauge:
    """A last-write-wins float value (worker counts, utilisations)."""

    __slots__ = ("name", "value", "units")

    def __init__(self, name: str, units: str = "") -> None:
        self.name = name
        self.value = 0.0
        self.units = units

    def set(self, value: float) -> None:
        self.value = value

    def metrics(self) -> List[Dict[str, Any]]:
        return [{"name": self.name, "value": self.value, "units": self.units}]


class Histogram:
    """A fixed-bucket-edge histogram of float observations.

    *edges* are the upper bounds of the finite buckets, strictly
    increasing; one overflow bucket catches everything beyond the last
    edge.  Fixed edges (rather than adaptive quantile sketches) keep the
    export deterministic and mergeable across processes.
    """

    __slots__ = ("name", "edges", "buckets", "count", "total", "units")

    def __init__(
        self,
        name: str,
        edges: Sequence[float] = DEFAULT_EDGES,
        units: str = "s",
    ) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ConfigurationError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram edges must be strictly increasing, got {edges}"
            )
        self.name = name
        self.edges = edges
        self.buckets = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.units = units

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def metrics(self) -> List[Dict[str, Any]]:
        out = [
            {"name": f"{self.name}_count", "value": self.count, "units": ""},
            {
                "name": f"{self.name}_total",
                "value": self.total,
                "units": self.units,
            },
            {"name": f"{self.name}_mean", "value": self.mean, "units": self.units},
        ]
        for i, edge in enumerate(self.edges):
            out.append(
                {
                    "name": f"{self.name}_le_{edge:g}",
                    "value": self.buckets[i],
                    "units": "",
                }
            )
        out.append(
            {"name": f"{self.name}_overflow", "value": self.buckets[-1], "units": ""}
        )
        return out


class SpanStat:
    """Aggregated timing for one named span.

    ``total_s`` is inclusive wall time; ``self_s`` excludes time spent
    in *nested* spans, so a set of span stats whose names tile a loop
    sums (by ``self_s``) to the loop's wall time — the property the
    ``lpfps profile`` breakdown relies on.
    """

    __slots__ = ("name", "count", "total_s", "self_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0

    def add(self, total_s: float, self_s: float, count: int = 1) -> None:
        self.count += count
        self.total_s += total_s
        self.self_s += self_s
        if total_s > self.max_s:
            self.max_s = total_s

    def metrics(self) -> List[Dict[str, Any]]:
        return [
            {"name": f"{self.name}_count", "value": self.count, "units": ""},
            {"name": f"{self.name}_total_s", "value": self.total_s, "units": "s"},
            {"name": f"{self.name}_self_s", "value": self.self_s, "units": "s"},
            {"name": f"{self.name}_max_s", "value": self.max_s, "units": "s"},
        ]


class Window:
    """The most recent :data:`MAX_SAMPLES` latency samples, in seconds.

    Exports the p50/p95/p99 of what it holds, in milliseconds (0.0 while
    empty).  Unlike a :class:`Histogram` it keeps raw samples, so its
    percentiles are exact over the window rather than bucket-bounded.
    """

    __slots__ = ("name", "samples")

    def __init__(self, name: str, samples: Iterable[float] = ()) -> None:
        self.name = name
        self.samples: "deque[float]" = deque(samples, maxlen=MAX_SAMPLES)

    def metrics(self) -> List[Dict[str, Any]]:
        ordered = sorted(self.samples)
        return [
            {
                "name": f"{self.name}_p{int(q * 100)}_ms",
                "value": percentile(ordered, q) * 1e3,
                "units": "ms",
            }
            for q in (0.5, 0.95, 0.99)
        ]
