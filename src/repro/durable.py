"""Durable record files: one write and read discipline for every store.

Three stores keep state that must survive a crash at any instant: the
cell checkpoint journal (:mod:`repro.experiments.checkpoint`), the
campaign manifests and event logs (:mod:`repro.service.durability`) and
the disk tier of the result cache (:mod:`repro.service.cache`).  They
differ only in their record codec and their read policy; the rules for
getting bytes onto the disk and back live here, once:

* :func:`encode` and :func:`checksum` give every record and checksum
  the same canonical JSON (sorted keys, no whitespace).
* :func:`atomic_write` replaces a whole file via a temp file in the same
  directory, fsync, then ``os.replace``.  Readers see the old bytes or
  the new bytes, never a mix, even across power loss.
* :class:`AppendLog` appends one JSON line per record and fsyncs it
  before returning.  It opens lazily and newline-terminates a torn tail
  an earlier crash left, so the next record is never glued onto it.  A
  rejected append leaves nothing behind: the file is truncated back to
  where the record started and the handle dropped.
* :func:`scan` pairs every non-blank line with its decoded record, or
  with ``None`` when the line is torn, not JSON, or rejected by the
  codec.  Each store applies its own policy to the pairs.
* :func:`rewrite` atomically keeps a chosen subset of lines verbatim.
* :class:`ScrubReport` is what every store's integrity scrub returns:
  one versioned document, one renderer, one set of counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar, Union

T = TypeVar("T")

#: Version of the scrub report document (``lpfps cache verify --json``).
SCRUB_SCHEMA = "repro/scrub/v1"


def _canonical(obj: Any) -> str:
    """Canonical JSON for *obj*: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def checksum(obj: Any) -> str:
    """SHA-256 hex digest of *obj*'s canonical JSON."""
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


def encode(record: Dict[str, Any]) -> bytes:
    """The on-disk line for *record*: canonical JSON plus a newline."""
    return (_canonical(record) + "\n").encode("utf-8")


def atomic_write(path: Union[str, Path], data: bytes) -> None:
    """Replace *path* with *data*, creating its directory if needed.

    The temp file is fsynced *before* the rename: ``os.replace`` alone
    keeps concurrent readers from seeing a torn file, but only flushed
    data keeps the new name from pointing at a partial file after a
    crash.  Raises :class:`OSError`; a failed write leaves no temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def rewrite(path: Union[str, Path], lines: Iterable[bytes]) -> None:
    """Atomically replace *path* with *lines*, one per line, verbatim."""
    atomic_write(path, b"".join(line + b"\n" for line in lines))


def scan(
    path: Union[str, Path], decode: Callable[[Dict[str, Any]], Optional[T]]
) -> List[Tuple[bytes, Optional[T]]]:
    """``(line, record)`` for every non-blank line of *path*, in order.

    *decode* receives each line's JSON object and returns the store's
    record, or ``None`` to reject it; a line that is not a UTF-8 JSON
    object pairs with ``None`` without reaching *decode*.  A missing
    file has no lines; any other :class:`OSError` propagates.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return []
    pairs: List[Tuple[bytes, Optional[T]]] = []
    for line in raw.splitlines():
        if not line.strip():
            continue
        try:
            document = json.loads(line.decode("utf-8"))
        except ValueError:  # torn write, or bytes that were never JSON
            document = None
        pairs.append((line, decode(document) if isinstance(document, dict) else None))
    return pairs


class AppendLog:
    """An append-only JSON-lines file; every record is fsynced."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._file: Any = None
        self._torn = False

    def append(self, record: Dict[str, Any]) -> bool:
        """Durably append *record*; False if the disk refused it.

        Writes are unbuffered, so a refused record has no remainder
        waiting in a buffer to reach the disk with a later append.  What
        did reach the file is truncated away, so a caller told False
        never finds the record on a later read.
        """
        line = encode(record)
        written = 0
        try:
            if self._file is None:
                self._open()
            if self._torn:
                line = b"\n" + line
            while written < len(line):
                written += self._file.write(line[written:])
            os.fsync(self._file.fileno())
        except OSError:
            self._abandon(written)
            return False
        self._torn = False
        return True

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a+b", buffering=0)
        size = self._file.seek(0, os.SEEK_END)
        self._torn = False
        if size:
            # A crash mid-append leaves a tail with no newline; the next
            # record starts with one so the torn bytes become their own
            # (rejected) line instead of corrupting the record.
            self._file.seek(size - 1)
            self._torn = self._file.read(1) != b"\n"

    def _abandon(self, written: int) -> None:
        """Truncate a refused record's bytes away and drop the handle."""
        if self._file is not None and written:
            try:
                end = self._file.tell()
                # Another appender may have written after us; never cut it.
                if os.fstat(self._file.fileno()).st_size == end:
                    os.ftruncate(self._file.fileno(), end - written)
            except OSError:
                pass
        self.close()

    def close(self) -> None:
        """Close the handle; idempotent.  The next append reopens it."""
        handle, self._file = self._file, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass


class ScrubReport(dict):
    """One store's integrity scrub; the dict *is* its ``--json`` document.

    ``{"schema", "kind", "path", "repair", "scanned", "intact",
    "corrupt", "repaired", "problems": [{"path", "reason"}]}``.  *kind*
    names the store (``cache``, ``journal`` or ``campaign``); a record
    is whatever unit the store verifies (a cache entry, a journal line,
    a manifest or an event line), so ``scanned`` counts records, and
    ``repaired`` counts the corrupt ones moved or cut away.  Each store
    keeps its own scan and repair policy; only this vocabulary is shared.
    """

    def __init__(self, kind: str, path: Union[str, Path], repair: bool):
        super().__init__(
            schema=SCRUB_SCHEMA, kind=kind, path=str(path), repair=bool(repair),
            scanned=0, intact=0, corrupt=0, repaired=0, problems=[],
        )

    @property
    def clean(self) -> bool:
        return not self["problems"]

    def problem(self, path: Union[str, Path], reason: str) -> None:
        self["problems"].append({"path": str(path), "reason": reason})

    def count(self, obs: Any) -> "ScrubReport":
        """Add the totals to *obs* as ``scrub.<kind>.<field>``; returns self."""
        if obs is not None:
            for name in ("scanned", "intact", "corrupt", "repaired"):
                obs.count(f"scrub.{self['kind']}.{name}", self[name])
        return self

    def render(self) -> str:
        verdict = "clean" if self.clean else f"{self['corrupt']} corrupt"
        lines = [
            f"{self['kind']} scrub: {self['path']}",
            f"  scanned {self['scanned']}, intact {self['intact']}, "
            f"repaired {self['repaired']} — {verdict}",
        ]
        for problem in self["problems"]:
            lines.append(f"  {problem['reason']:<18} {problem['path']}")
        return "\n".join(lines)
