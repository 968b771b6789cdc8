"""Content-addressed result cache: an in-memory LRU tier over a disk tier.

Keys are query fingerprints (:mod:`repro.service.fingerprint`); values
are the JSON-ready response payloads of :mod:`repro.service.results`.
Because the key is a content hash of everything that determines the
answer, a hit *is* the answer — no validation or expiry is needed, and
the tiers may be shared between processes and across service restarts.

* The **memory tier** is a bounded LRU (an ``OrderedDict`` moved-to-end
  on access); eviction only forgets the fast copy, never the answer.
  The bound is explicit (``memory_items``, 0 disables the tier) and
  every eviction is counted as ``cache.mem_evictions`` so
  ``/v1/metrics`` surfaces silent memory-pressure churn.
* The **disk tier** stores one JSON file per fingerprint, sharded by the
  first two hex digits, written with :func:`repro.durable.atomic_write`
  so a crashed or concurrent writer can never leave a torn entry.  A
  disk hit is promoted back into the memory tier.  Unreadable entries
  are treated as misses and removed — the cache degrades to recomputing,
  never to failing.

Disk entries are wrapped in a **checksum envelope**
``{"v": 1, "key": <fingerprint>, "sha": <sha256 of canonical payload>,
"payload": {...}}`` so the reader can distinguish three failure classes
a bare payload cannot: torn writes (invalid JSON), misfiled entries
(``key`` disagrees with the filename), and silent bit rot (``sha``
disagrees with the payload).  All three degrade to a miss, counted as
``cache.disk_corrupt``.  :func:`scrub_cache` walks every shard offline
and verifies the same envelope — ``repair=True`` quarantines broken
entries under ``quarantine/`` so they can never serve again, and the
``cache.scrub_*`` counters surface the sweep on ``/v1/metrics``.

Every count lands in the injected obs registry (none by default):
``cache_hits_memory``, ``cache_hits_disk``, ``cache_misses`` and
``cache_puts``, registered at 0 on construction, plus the
``cache_memory_entries`` gauge.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..durable import atomic_write, checksum
from ..obs.registry import DISABLED, Registry

#: Version of the on-disk entry envelope.
ENVELOPE_VERSION = 1

#: Directory (under the cache root) where the scrubber parks corrupt entries.
QUARANTINE_DIR = "quarantine"


def payload_checksum(payload: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON encoding of *payload*."""
    return checksum(payload)


def wrap_entry(key: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """The checksum envelope written to disk for *payload* under *key*."""
    return {
        "v": ENVELOPE_VERSION,
        "key": key,
        "sha": payload_checksum(payload),
        "payload": payload,
    }


def open_entry(key: str, document: Any) -> Tuple[Optional[Dict[str, Any]], str]:
    """Verify an on-disk *document* against *key*.

    Returns ``(payload, "ok")`` when the envelope is intact and
    ``(None, reason)`` otherwise — the reason strings feed both the
    reader's corruption counter and the scrubber's report.
    """
    if not isinstance(document, dict):
        return None, "not-an-envelope"
    if document.get("v") != ENVELOPE_VERSION or "payload" not in document:
        return None, "not-an-envelope"
    if document.get("key") != key:
        return None, "key-mismatch"
    payload = document["payload"]
    if not isinstance(payload, dict):
        return None, "not-an-envelope"
    if document.get("sha") != payload_checksum(payload):
        return None, "checksum-mismatch"
    return payload, "ok"


class ResultCache:
    """Two-tier content-addressed store for response payloads."""

    def __init__(
        self,
        memory_items: int = 1024,
        disk_dir: Union[None, str, Path] = None,
        obs: Optional["Registry"] = None,
    ):
        if memory_items < 0:
            raise ValueError(f"memory_items must be >= 0, got {memory_items}")
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._memory_items = memory_items
        self._disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._obs = obs if obs is not None else DISABLED
        self._lock = threading.Lock()
        for name in ("cache_hits_memory", "cache_hits_disk", "cache_misses",
                     "cache_puts"):
            self._obs.count(name, 0)
        self._obs.gauge("cache_memory_entries", 0)

    # -- lookup --------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the payload for *key*, or ``None`` on a full miss."""
        payload, _ = self.get_with_tier(key)
        return payload

    def get_with_tier(self, key: str) -> Tuple[Optional[Dict[str, Any]], str]:
        """Like :meth:`get` but also reports which tier answered.

        Returns ``(payload, "memory"|"disk")`` on a hit and
        ``(None, "miss")`` otherwise.  Callers must treat payloads as
        immutable — tiers hand out the stored object, not a copy.
        """
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
        if payload is not None:
            self._obs.count("cache_hits_memory")
            return payload, "memory"
        payload = self._disk_read(key)
        if payload is not None:
            self._obs.count("cache_hits_disk")
            with self._lock:
                self._memory_put(key, payload)
            return payload, "disk"
        self._obs.count("cache_misses")
        return None, "miss"

    # -- store ---------------------------------------------------------------
    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store *payload* under *key* in both tiers."""
        self._obs.count("cache_puts")
        with self._lock:
            self._memory_put(key, payload)
        self._disk_write(key, payload)

    def _memory_put(self, key: str, payload: Dict[str, Any]) -> None:
        if self._memory_items == 0:
            return
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_items:
            self._memory.popitem(last=False)
            self._obs.count("cache.mem_evictions")
        self._obs.gauge("cache_memory_entries", len(self._memory))

    # -- disk tier -----------------------------------------------------------
    def _disk_path(self, key: str) -> Optional[Path]:
        if self._disk_dir is None:
            return None
        return self._disk_dir / key[:2] / f"{key}.json"

    def _disk_read(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._disk_path(key)
        if path is None:
            return None
        payload, verdict = _read_entry(path)
        if payload is None and verdict != "missing":
            # Torn, corrupt, or failing its checksum or identity: a
            # wrong hit is the one outcome the cache must never produce,
            # so the entry is swept and the lookup degrades to a miss.
            self._obs.count("cache.disk_corrupt")
            try:
                path.unlink()
            except OSError:
                pass
        return payload

    def _disk_write(self, key: str, payload: Dict[str, Any]) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        data = json.dumps(wrap_entry(key, payload), sort_keys=True)
        try:
            atomic_write(path, data.encode("utf-8"))
        except OSError:
            # A read-only or full disk demotes the cache to memory-only.
            pass

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        """Entries currently resident in the memory tier."""
        with self._lock:
            return len(self._memory)


# -- integrity scrubber ------------------------------------------------------
@dataclass
class CacheScrubReport:
    """Outcome of one :func:`scrub_cache` sweep."""

    directory: str
    repair: bool
    scanned: int = 0
    intact: int = 0
    corrupt: int = 0
    quarantined: int = 0
    #: One ``{"path": ..., "reason": ...}`` record per broken entry.
    problems: List[Dict[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.corrupt == 0

    def to_document(self) -> Dict[str, Any]:
        return {
            "kind": "cache-scrub",
            "directory": self.directory,
            "repair": self.repair,
            "scanned": self.scanned,
            "intact": self.intact,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "problems": list(self.problems),
        }

    def render(self) -> str:
        verdict = "clean" if self.clean else f"{self.corrupt} corrupt"
        lines = [
            f"cache scrub: {self.directory}",
            f"  scanned {self.scanned}, intact {self.intact}, "
            f"quarantined {self.quarantined} — {verdict}",
        ]
        for problem in self.problems:
            lines.append(f"  {problem['reason']:<18} {problem['path']}")
        return "\n".join(lines)


def _read_entry(path: Path) -> Tuple[Optional[Dict[str, Any]], str]:
    """One shard file's payload and envelope verdict ("ok" or a defect)."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None, "missing"
    except OSError:
        return None, "unreadable"
    except ValueError:
        return None, "torn-or-corrupt-json"
    return open_entry(path.stem, document)


def _quarantine(root: Path, path: Path) -> bool:
    """Move *path* under ``<root>/quarantine/``; True on success."""
    pen = root / QUARANTINE_DIR
    try:
        pen.mkdir(parents=True, exist_ok=True)
        target = pen / path.name
        n = 0
        while target.exists():
            n += 1
            target = pen / f"{path.name}.{n}"
        os.replace(path, target)
    except OSError:
        return False
    return True


def scrub_cache(
    disk_dir: Union[str, Path],
    repair: bool = False,
    obs: Optional["Registry"] = None,
) -> CacheScrubReport:
    """Verify every disk-tier entry under *disk_dir*.

    Each shard file is re-validated against the checksum envelope; torn
    JSON, misfiled keys, and checksum mismatches are all reported.  With
    ``repair=True`` broken entries are *quarantined* — moved aside, so a
    later reader sees a miss (never a wrong hit) while the evidence
    survives for inspection.  An absent directory is a clean no-op scrub
    (a cold cache has nothing to verify).

    Counters (when *obs* is given): ``cache.scrub_scanned``,
    ``cache.scrub_intact``, ``cache.scrub_corrupt``,
    ``cache.scrub_quarantined``.
    """
    sink = obs if obs is not None else DISABLED
    root = Path(disk_dir)
    report = CacheScrubReport(directory=str(root), repair=repair)
    if not root.is_dir():
        return report
    for shard in sorted(root.iterdir()):
        # Shard dirs are the first two hex digits of the key; anything
        # else (quarantine/, stray files) is not cache payload.
        if not shard.is_dir() or shard.name == QUARANTINE_DIR:
            continue
        for path in sorted(shard.glob("*.json")):
            report.scanned += 1
            sink.count("cache.scrub_scanned")
            _, verdict = _read_entry(path)
            if verdict == "ok" and not path.stem.startswith(shard.name):
                verdict = "misfiled-shard"
            if verdict == "ok":
                report.intact += 1
                sink.count("cache.scrub_intact")
                continue
            report.corrupt += 1
            sink.count("cache.scrub_corrupt")
            report.problems.append({"path": str(path), "reason": verdict})
            if repair and _quarantine(root, path):
                report.quarantined += 1
                sink.count("cache.scrub_quarantined")
    return report
