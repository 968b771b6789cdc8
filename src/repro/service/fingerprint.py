"""Canonical content fingerprinting of service queries.

The cache key for a query is a SHA-256 over a *canonical payload* — a
JSON rendering in which every degree of freedom that cannot change the
answer has been normalised away:

* **task order** — tasks are sorted by name; the answer depends on the
  (name → parameters, priority) mapping, never on list order;
* **numeric representation** — every time parameter is rendered in the
  shortest round-trip form of :func:`repro.tasks.document.num`, so
  ``2000``, ``2000.0``, ``2e3``, and a request phrased as ``2`` ms
  (scaled to µs at parse time) all canonicalise to the string
  ``'2000.0'``;
* **irrelevant knobs** — :func:`repro.service.query.build_query` zeroes
  scheduler/seed/horizon for analytic kinds before the fingerprint is
  taken.

Two queries with equal fingerprints are therefore guaranteed to produce
bit-identical payloads, which is what lets the cache and the in-flight
dedupe serve one computation to many callers.
"""

from __future__ import annotations

from typing import Any, Dict

from ..durable import checksum
from ..tasks.document import FINGERPRINT_VERSION, canonical_tasks, num
from .query import Query


def canonical_payload(query: Query) -> Dict[str, Any]:
    """The canonical, JSON-ready payload the fingerprint hashes."""
    return {
        "v": FINGERPRINT_VERSION,
        "kind": query.kind,
        "tasks": canonical_tasks(query.taskset),
        "scheduler": query.scheduler,
        "seed": int(query.seed),
        "duration": None if query.duration is None else num(query.duration),
        "execution": query.execution,
        "record_trace": bool(query.record_trace),
    }


def fingerprint(query: Query) -> str:
    """SHA-256 hex digest of the canonical payload — the cache key."""
    return checksum(canonical_payload(query))
