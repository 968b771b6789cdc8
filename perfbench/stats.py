"""Pure helpers shared by the workloads: percentiles, digests, layer sums.

Nothing here imports the program under test, so the helpers are cheap to
unit-test (``python3 -m pytest perfbench/tests``).
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Iterable, Mapping, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; a "p99" over 12 samples is the largest sample, not a p99.
MIN_SAMPLES_BEYOND = 10

#: ROADMAP item 1's acceptance: the layers along the blocking path must
#: sum to within this share of the end-to-end wall time.
LAYER_SUM_TOLERANCE = 0.10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (0 < q < 1) of *samples*, linearly interpolated.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond the requested point.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(samples)
    if n * (1.0 - q) < MIN_SAMPLES_BEYOND - 1e-9:
        raise InsufficientSamples(
            f"p{q * 100:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{n} samples leave {n * (1.0 - q):.1f}"
        )
    ordered = sorted(samples)
    position = q * (n - 1)
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, exact floats."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(values: Iterable[Any]) -> str:
    """sha256 over the canonical JSON of each value, in order."""
    h = hashlib.sha256()
    for value in values:
        h.update(canonical_json(value).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def check_digest(name: str, values: Iterable[Any], expected: str) -> Dict[str, Any]:
    """Compare the digest of *values* to a pinned one; returns a check row."""
    actual = digest(values)
    return {"check": name, "ok": actual == expected, "actual": actual,
            "expected": expected}


def gather(
    sources: Mapping[str, float], layers: Mapping[str, Sequence[str]]
) -> Dict[str, float]:
    """Each layer's value: the sum of the source figures it names.

    A layer is left out when any of its sources is absent, never read as
    zero, so :func:`layer_sum` reports a renamed or dropped source as a
    missing layer.
    """
    return {
        name: sum(sources[s] for s in names)
        for name, names in layers.items()
        if all(s in sources for s in names)
    }


def layer_sum(
    layers: Mapping[str, float],
    wall: float,
    required: Sequence[str],
    tolerance: float = LAYER_SUM_TOLERANCE,
) -> Dict[str, Any]:
    """Check that the *required* layers tile the end-to-end *wall*.

    Every required layer must be present and the layers together must
    land within *tolerance* of the wall time.  A missing layer fails the
    check outright rather than being read as zero.
    """
    missing = [name for name in required if name not in layers]
    total = sum(layers.get(name, 0.0) for name in required)
    ratio = total / wall if wall > 0 else 0.0
    ok = not missing and wall > 0 and abs(ratio - 1.0) <= tolerance
    return {"ok": ok, "ratio": ratio, "sum": total, "wall": wall,
            "missing": missing}
