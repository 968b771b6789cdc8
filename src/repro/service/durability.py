"""Durable campaign state: write-ahead manifests + fsynced event logs.

The streamed-campaign path (``POST /v1/scenario`` → background runner →
``GET /v1/stream/{id}``) held everything in process memory before this
module: a replica crash discarded every computed cell and stranded SSE
clients mid-stream.  :class:`CampaignStore` gives the
:class:`~repro.service.stream.CampaignHub` a disk half, co-located with
the cell checkpoint journal (:mod:`repro.experiments.checkpoint`) inside
one checkpoint directory::

    <checkpoint-dir>/
        journal.jsonl                     # per-cell results (PR 5)
        campaigns/
            <id>.manifest.json            # write-ahead campaign intent
            <id>.events.jsonl             # the hub's ordered event log

Three durability rules, on the write and read discipline of
:mod:`repro.durable` that the cell journal shares:

* **Write-ahead manifest** — the manifest (scenario fingerprint, full
  canonical document, grid size, execution mode) is written atomically
  *before* the first cell runs, so a crash at any instant leaves either
  no campaign or a resumable one, never a half-registered one.
* **Durable-before-visible events** — an event is appended and fsynced
  to ``<id>.events.jsonl`` before subscribers see it, so a reconnecting
  client's ``?after=N`` cursor always refers to state that survives a
  crash.
* **Tolerant, prefix-exact reads** — each event line carries a checksum
  and a 1-based sequence number; :meth:`CampaignStore.load_events`
  returns the longest intact *gapless prefix* and discards everything
  after the first torn/corrupt/out-of-sequence line.  A lost suffix is
  recomputed from the cell journal; a corrupt line is never replayed.

Campaign identity is content-addressed: :func:`campaign_key` hashes the
scenario fingerprint plus the execution mode, so re-submitting the same
scenario document reuses the same id — the idempotence that makes
resume-by-fingerprint work across restarts and replicas.

A checkpoint directory may be shared by a whole fleet of replicas, so
campaign *ownership* is cross-process: one ``flock``-ed sidecar lease
file per campaign (:meth:`CampaignStore.acquire_lease`).  Only the
lease holder may run a campaign's executor, append to its event log, or
rewrite/delete its files; a lease evaporates with its owner's process
(SIGKILL included), which is exactly the crash-recovery hand-off the
resume path needs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Tuple, Union

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from ..durable import AppendLog, ScrubReport, atomic_write, checksum, rewrite, scan
from ..obs.registry import DISABLED

#: Version of the manifest document and the event record envelope.
MANIFEST_VERSION = 1
EVENT_VERSION = 1

#: Subdirectory of the checkpoint dir holding campaign state.
CAMPAIGNS_DIR = "campaigns"

#: Event kinds that close a campaign.  The hub re-exports this; it lives
#: here so the store can recognise finished campaigns without importing
#: the (higher-layer) hub.
TERMINAL_KINDS = ("done", "error")

#: Seconds a finished campaign's on-disk log outlives its terminal
#: event before :meth:`CampaignStore.gc` may collect it.
GC_RETENTION_S = 7 * 86_400.0

_MANIFEST_SUFFIX = ".manifest.json"
_EVENTS_SUFFIX = ".events.jsonl"
_LEASE_SUFFIX = ".lease"


def campaign_key(fingerprint: str, execution: str = "exact") -> str:
    """Stable campaign id for one (scenario fingerprint, execution) pair.

    The id is what ``GET /v1/stream/{id}`` takes, so it must survive a
    restart and be recomputable from the scenario document alone — a
    content hash is both.  The execution mode participates for the same
    reason it participates in cell fingerprints: exact and fast runs of
    one scenario are different campaigns.
    """
    return "c" + checksum({"execution": execution, "fingerprint": fingerprint})[:16]


class CampaignStore:
    """Disk half of the campaign hub: manifests + per-campaign event logs."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.campaigns_dir = self.directory / CAMPAIGNS_DIR
        self._logs: Dict[str, AppendLog] = {}
        self._leases: Dict[str, IO[bytes]] = {}

    # -- manifests -----------------------------------------------------------
    def manifest_path(self, campaign_id: str) -> Path:
        return self.campaigns_dir / f"{campaign_id}{_MANIFEST_SUFFIX}"

    def events_path(self, campaign_id: str) -> Path:
        return self.campaigns_dir / f"{campaign_id}{_EVENTS_SUFFIX}"

    def lease_path(self, campaign_id: str) -> Path:
        return self.campaigns_dir / f"{campaign_id}{_LEASE_SUFFIX}"

    # -- cross-process ownership --------------------------------------------
    def acquire_lease(self, campaign_id: str) -> bool:
        """Take exclusive ownership of one campaign; False if owned elsewhere.

        Ownership is a non-blocking ``flock`` on a sidecar lease file.
        It conflicts across processes *and* across descriptors within
        one process (two stores over one directory behave like two
        replicas), and the kernel drops it the instant the owning
        process dies — so a SIGKILLed replica's campaigns become
        adoptable with no timeout dance.  Idempotent per store: a store
        that already holds the lease keeps it and answers True.
        """
        if campaign_id in self._leases:
            return True
        try:
            self.campaigns_dir.mkdir(parents=True, exist_ok=True)
            handle = open(self.lease_path(campaign_id), "ab")
        except OSError:
            return False
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                return False
        self._leases[campaign_id] = handle
        return True

    def release_lease(self, campaign_id: str) -> None:
        """Give up ownership of one campaign; idempotent."""
        handle = self._leases.pop(campaign_id, None)
        if handle is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()
        except OSError:
            pass

    def owns_lease(self, campaign_id: str) -> bool:
        """Whether *this store* currently holds the campaign's lease."""
        return campaign_id in self._leases

    def write_manifest(
        self, campaign_id: str, manifest: Dict[str, Any]
    ) -> bool:
        """Atomically persist campaign intent; False on an unwritable disk."""
        document = {"v": MANIFEST_VERSION, "campaign_id": campaign_id, **manifest}
        data = json.dumps(document, sort_keys=True).encode("utf-8")
        try:
            atomic_write(self.manifest_path(campaign_id), data)
        except OSError:
            return False
        return True

    def load_manifest(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        """The manifest for *campaign_id*, or ``None`` if absent/corrupt."""
        try:
            document = json.loads(
                self.manifest_path(campaign_id).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        if (
            not isinstance(document, dict)
            or document.get("v") != MANIFEST_VERSION
            or document.get("campaign_id") != campaign_id
        ):
            return None
        return document

    def list_manifests(self) -> Dict[str, Dict[str, Any]]:
        """Every intact manifest, keyed by campaign id, oldest first."""
        manifests: Dict[str, Dict[str, Any]] = {}
        if not self.campaigns_dir.is_dir():
            return manifests

        def mtime(path: Path) -> float:
            # A sibling replica may GC the file between glob and stat.
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0

        paths = sorted(
            self.campaigns_dir.glob(f"*{_MANIFEST_SUFFIX}"),
            key=lambda p: (mtime(p), p.name),
        )
        for path in paths:
            campaign_id = path.name[: -len(_MANIFEST_SUFFIX)]
            manifest = self.load_manifest(campaign_id)
            if manifest is not None:
                manifests[campaign_id] = manifest
        return manifests

    # -- event log -----------------------------------------------------------
    def append_event(self, campaign_id: str, event: Dict[str, Any]) -> bool:
        """Durably append one hub event; False on an unwritable disk.

        The record is fsynced before this returns — the
        durable-before-visible half of the reconnect contract.  A
        refused record leaves nothing on disk, so the hub may reuse its
        sequence number for the terminal error it publishes instead.
        """
        log = self._logs.get(campaign_id)
        if log is None:
            log = self._logs[campaign_id] = AppendLog(self.events_path(campaign_id))
        return log.append(event_record(event))

    def _read_log(
        self, campaign_id: str
    ) -> Tuple[int, List[Tuple[bytes, Dict[str, Any]]]]:
        """Non-blank line count and the intact gapless prefix as
        ``(line, event)`` pairs; raises :class:`OSError` if unreadable."""
        entries = scan(self.events_path(campaign_id), _decode_event)
        prefix: List[Tuple[bytes, Dict[str, Any]]] = []
        for line, event in entries:
            if event is None or event["seq"] != len(prefix) + 1:
                break
            prefix.append((line, event))
        return len(entries), prefix

    def load_events(self, campaign_id: str) -> List[Dict[str, Any]]:
        """The longest intact gapless event prefix for *campaign_id*.

        Reads stop at the first torn, checksum-mismatched, or
        out-of-sequence line: everything before it is exactly what a
        pre-crash subscriber could have seen; everything after it is
        recomputable from the cell journal and must not be trusted.
        """
        try:
            _, prefix = self._read_log(campaign_id)
        except OSError:
            return []
        return [event for _, event in prefix]

    def repair_log(self, campaign_id: str) -> List[Dict[str, Any]]:
        """Truncate one event log to its intact gapless prefix.

        Returns the intact prefix.  The adoption step: before a process
        that just took over a campaign (restart *or* live fleet
        hand-off) may append, any torn tail the previous owner's crash
        left behind must go — appending after a corrupt line would put
        every later event beyond the readable prefix.  The caller must
        own the campaign's lease (or be single-process); the rewrite is
        atomic.
        """
        return self._repair(campaign_id)[0]

    def _repair(self, campaign_id: str) -> Tuple[List[Dict[str, Any]], bool]:
        """:meth:`repair_log`, plus whether the log now holds just the prefix."""
        try:
            lines, prefix = self._read_log(campaign_id)
        except OSError:
            return [], False
        events = [event for _, event in prefix]
        if lines == len(prefix):
            return events, True
        self.close(campaign_id)
        try:
            rewrite(self.events_path(campaign_id), [line for line, _ in prefix])
        except OSError:
            return events, False
        return events, True

    def close(self, campaign_id: Optional[str] = None) -> None:
        """Close append handles (one campaign, or all); idempotent."""
        ids = [campaign_id] if campaign_id is not None else list(self._logs)
        for cid in ids:
            log = self._logs.pop(cid, None)
            if log is not None:
                log.close()

    # -- integrity -----------------------------------------------------------
    def scrub(self, repair: bool = False, obs: Any = None) -> ScrubReport:
        """Verify every manifest and event log under the store.

        A manifest is one record and so is an event line.  Event logs
        are checked against the prefix rule; with ``repair=True`` each
        log is truncated (atomically rewritten) to its intact prefix and
        corrupt manifests are quarantined by rename (``.corrupt``
        suffix), so a later reader can never replay a broken record.
        Rewrites are **lease-guarded**: a log whose campaign is owned by
        a live sibling process is never rewritten from under its open
        append handle — the repair is skipped and recorded as a problem
        instead (the owner terminates torn tails itself on its next
        append).  One unreadable file is one problem, never an aborted
        scrub.  Totals are counted into *obs* as ``scrub.campaign.*``.
        """
        report = ScrubReport("campaign", self.campaigns_dir, repair)
        for path in sorted(self.campaigns_dir.glob(f"*{_MANIFEST_SUFFIX}")):
            report["scanned"] += 1
            if self.load_manifest(path.name[: -len(_MANIFEST_SUFFIX)]) is not None:
                report["intact"] += 1
                continue
            report["corrupt"] += 1
            report.problem(path, "corrupt-manifest")
            if repair:
                try:
                    os.replace(path, path.with_suffix(".corrupt"))
                    report["repaired"] += 1
                except OSError:
                    pass
        for path in sorted(self.campaigns_dir.glob(f"*{_EVENTS_SUFFIX}")):
            campaign_id = path.name[: -len(_EVENTS_SUFFIX)]
            try:
                lines, prefix = self._read_log(campaign_id)
            except OSError as exc:
                report.problem(path, f"unreadable:{type(exc).__name__}")
                continue
            corrupt = lines - len(prefix)
            report["scanned"] += lines
            report["intact"] += len(prefix)
            if not corrupt:
                continue
            report["corrupt"] += corrupt
            report.problem(path, f"torn-suffix:{corrupt}-records")
            if not repair:
                continue
            owned = self.owns_lease(campaign_id)
            if not owned and not self.acquire_lease(campaign_id):
                report.problem(path, "repair-skipped:lease-held")
                continue
            try:
                if self._repair(campaign_id)[1]:
                    report["repaired"] += corrupt
            finally:
                if not owned:
                    self.release_lease(campaign_id)
        return report.count(obs)

    # -- retention -----------------------------------------------------------
    def gc(
        self,
        retention_s: float = GC_RETENTION_S,
        now: Optional[float] = None,
        obs: Any = None,
    ) -> Dict[str, Any]:
        """Collect finished campaigns older than *retention_s* seconds.

        A campaign is collectable when its event log ends in a terminal
        event and the log has not been appended to for *retention_s*
        seconds; its manifest, event log, and lease file are then
        deleted.  Running campaigns, recent ones, and anything whose
        lease a live process holds are left alone — GC can only ever
        reclaim state that a resubmission would regenerate from the
        cell journal anyway.  Counter: ``cache.gc_campaigns``.
        """
        sink = obs if obs is not None else DISABLED
        report = {
            "kind": "campaign-gc",
            "directory": str(self.campaigns_dir),
            "retention_s": retention_s,
            "scanned": 0,
            "removed": 0,
            "kept": 0,
        }
        if not self.campaigns_dir.is_dir():
            return report
        moment = time.time() if now is None else now
        ids = set()
        for suffix in (_MANIFEST_SUFFIX, _EVENTS_SUFFIX):
            for path in self.campaigns_dir.glob(f"*{suffix}"):
                ids.add(path.name[: -len(suffix)])
        for campaign_id in sorted(ids):
            report["scanned"] += 1
            events = self.load_events(campaign_id)
            terminal = bool(events) and events[-1]["kind"] in TERMINAL_KINDS
            try:
                age = moment - self.events_path(campaign_id).stat().st_mtime
            except OSError:
                age = None
            if (
                not terminal
                or age is None
                or age < retention_s
                or self.owns_lease(campaign_id)
                or not self.acquire_lease(campaign_id)
            ):
                report["kept"] += 1
                continue
            try:
                self.close(campaign_id)
                for path in (
                    self.events_path(campaign_id),
                    self.manifest_path(campaign_id),
                    self.lease_path(campaign_id),
                ):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            finally:
                self.release_lease(campaign_id)
            report["removed"] += 1
            sink.count("cache.gc_campaigns")
        return report


def event_record(event: Dict[str, Any]) -> Dict[str, Any]:
    """The on-disk record for one in-memory hub event."""
    fields = {"seq": int(event["seq"]), "kind": event["kind"], "data": event["data"]}
    return {"v": EVENT_VERSION, "sha": checksum(fields), **fields}


def _decode_event(record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The hub event of one intact record, or ``None`` if corrupt/alien."""
    seq = record.get("seq")
    kind = record.get("kind")
    data = record.get("data")
    if record.get("v") != EVENT_VERSION or not isinstance(seq, int):
        return None
    if not isinstance(kind, str) or not isinstance(data, dict):
        return None
    event = {"seq": seq, "kind": kind, "data": data}
    return event if record.get("sha") == checksum(event) else None
