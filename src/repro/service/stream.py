"""Live campaign streaming: an in-process event hub behind ``/v1/stream``.

A scenario campaign submitted to the service runs on a background
thread; every cell the executor commits becomes one sequenced event in
this hub.  Subscribers (the SSE endpoint, in-process observers, tests)
read the same ordered log: a late subscriber first *replays* the buffered
prefix, then *tails* live until the terminal event — so the stream is a
replayable record, not a lossy broadcast.

The hub is deliberately transport-free: it knows nothing about HTTP.
``/v1/stream/{campaign_id}`` renders its events as Server-Sent Events;
anything else (a CLI follower, a test) iterates :meth:`CampaignHub.subscribe`
directly.

Two orthogonal hardening layers (this PR):

* **Durability** — with a :class:`~repro.service.durability.CampaignStore`
  attached, every event is fsynced to the campaign's on-disk log
  *before* subscribers see it, and :meth:`CampaignHub.load_persisted`
  replays the logs after a restart, so ``?after=N`` reconnects across a
  server crash are gapless and duplicate-free.  Cell events deduplicate
  by cell index: when a resumed campaign's checkpoint prefill re-fires
  cells that already streamed before the crash, the hub drops the
  duplicates instead of re-sequencing them.  The contract is honest
  about failure, too: if the disk rejects an append, the event is
  *never* shown to subscribers — the campaign fails loudly
  (``stream.durability_degraded``) rather than stream state a crash
  would silently erase.
* **Bounded retention** — finished campaigns are evicted after
  ``finished_ttl_s`` seconds or beyond ``max_finished`` entries
  (oldest-finished first), counted as ``stream.evictions``.  An evicted
  id raises :class:`CampaignEvicted` (the HTTP layer's 410) carrying a
  resume hint; with a store attached the hub transparently reloads the
  campaign from disk instead, so eviction only ever forgets the fast
  copy.  Disk retention is bounded separately: :meth:`CampaignHub.reap`
  also garbage-collects long-finished on-disk logs through
  :meth:`CampaignStore.gc`, and :meth:`CampaignHub.load_persisted`
  skips terminal campaigns already past the in-memory TTL, so restart
  replay cost does not grow with deployment age.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError, ServiceError
from ..obs.registry import Registry

#: Terminal event kinds (re-exported from the store layer): once one is
#: published, a campaign is closed and subscribers drain and stop.
from .durability import TERMINAL_KINDS

if TYPE_CHECKING:  # pragma: no cover
    from .durability import CampaignStore

#: Finished campaigns kept for replay before the oldest is evicted.
MAX_FINISHED = 64

#: Default seconds a finished campaign is retained in memory.
FINISHED_TTL_S = 3600.0

#: Evicted ids remembered for 410-with-resume-hint responses.
MAX_EVICTED_HINTS = 256


class CampaignEvicted(KeyError):
    """The campaign id was valid but its events have been evicted.

    Carries a JSON-ready *hint* so the HTTP layer can answer 410 Gone
    with everything a client needs to resume: the scenario fingerprint
    to re-submit (idempotent when the server has a checkpoint dir) and
    the endpoint to re-submit it to.
    """

    def __init__(self, campaign_id: str, hint: Dict[str, Any]):
        super().__init__(campaign_id)
        self.campaign_id = campaign_id
        self.hint = hint


class _Campaign:
    """One campaign's ordered event log plus its lifecycle state."""

    __slots__ = ("id", "meta", "events", "state", "created_s", "finished_s",
                 "seen_cells")

    def __init__(self, campaign_id: str, meta: Dict[str, Any]):
        self.id = campaign_id
        self.meta = meta
        self.events: List[Dict[str, Any]] = []
        self.state = "running"
        self.created_s = time.time()
        self.finished_s: Optional[float] = None
        #: cell index -> seq of the event that first reported it; the
        #: dedupe map that makes checkpoint-prefill replays idempotent.
        self.seen_cells: Dict[int, int] = {}

    @property
    def done(self) -> bool:
        return self.state != "running"

    def snapshot(self) -> Dict[str, Any]:
        return {
            "campaign_id": self.id,
            "state": self.state,
            "events": len(self.events),
            "meta": dict(self.meta),
        }

    def append(self, kind: str, data: Dict[str, Any]) -> Dict[str, Any]:
        seq = len(self.events) + 1
        event = {"seq": seq, "kind": kind, "data": dict(data)}
        self.events.append(event)
        if kind == "cell" and isinstance(data.get("cell"), int):
            self.seen_cells.setdefault(data["cell"], seq)
        if kind in TERMINAL_KINDS:
            self.state = kind
            self.finished_s = time.time()
        return event


class CampaignHub:
    """Thread-safe registry of streaming campaigns.

    One condition variable serialises publishes and wakes every waiting
    subscriber; events are small dicts and campaigns are cell-bounded,
    so the whole log is kept for replay (``?after=N`` resumption).
    """

    def __init__(
        self,
        obs: Optional[Registry] = None,
        store: Optional["CampaignStore"] = None,
        max_finished: int = MAX_FINISHED,
        finished_ttl_s: Optional[float] = FINISHED_TTL_S,
    ):
        self._lock = threading.Condition()
        self._campaigns: Dict[str, _Campaign] = {}
        self._evicted: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._ids = itertools.count(1)
        self._obs = obs if obs is not None else Registry()
        self._store = store
        self._max_finished = max_finished
        self._finished_ttl_s = finished_ttl_s

    @property
    def store(self) -> Optional["CampaignStore"]:
        return self._store

    # -- lifecycle -----------------------------------------------------------
    def create(
        self, meta: Dict[str, Any], campaign_id: Optional[str] = None
    ) -> str:
        """Register a new campaign; returns its id.

        Ids default to the sequential ``c1``, ``c2``, ... scheme; a
        caller with a durable identity (the server's content-addressed
        :func:`~repro.service.durability.campaign_key`) passes it
        explicitly so the id survives restarts.
        """
        with self._lock:
            if campaign_id is None:
                campaign_id = f"c{next(self._ids)}"
            elif campaign_id in self._campaigns:
                raise ConfigurationError(
                    f"campaign {campaign_id!r} already exists"
                )
            self._campaigns[campaign_id] = _Campaign(campaign_id, dict(meta))
            self._evicted.pop(campaign_id, None)
            self._evict_finished()
            self._obs.count("stream.campaigns")
        return campaign_id

    def load_persisted(self) -> List[str]:
        """Recover every persisted campaign from the attached store.

        Replays each on-disk event log into a fresh in-memory campaign
        (state follows the last replayed event), so subscribers can
        resume with ``?after=N`` exactly where the crashed process left
        them.  Returns the recovered ids; campaigns already resident are
        left untouched.  A no-op without a store.
        """
        if self._store is None:
            return []
        recovered: List[str] = []
        now = time.time()
        for campaign_id, manifest in self._store.list_manifests().items():
            with self._lock:
                if campaign_id in self._campaigns:
                    continue
                campaign = self._replay(campaign_id, manifest)
                if campaign.done and self._finished_ttl_s is not None:
                    # A finished campaign already past the in-memory TTL
                    # would be evicted on the next reap anyway; leave it
                    # on disk (reads reload it on demand) instead of
                    # paying restart replay memory for it.
                    try:
                        age = now - (
                            self._store.events_path(campaign_id)
                            .stat().st_mtime
                        )
                    except OSError:
                        age = 0.0
                    if age > self._finished_ttl_s:
                        continue
                self._campaigns[campaign_id] = campaign
                self._evicted.pop(campaign_id, None)
                self._obs.count("stream.campaigns_recovered")
                recovered.append(campaign_id)
        with self._lock:
            self._evict_finished()
        return recovered

    def refresh(self, campaign_id: str) -> None:
        """Re-sync one campaign's in-memory copy from the durable log.

        The adoption step for a live fleet hand-off: a replica that just
        took a campaign's lease may hold a *stale* fast copy replayed at
        its own startup, while the previous owner kept appending durably
        until it died.  Disk events beyond the in-memory log are
        appended (waking subscribers); the in-memory copy is never
        truncated — it can only be ahead of disk when this process is
        itself the writer, in which case disk is the stale side.  A
        no-op without a store or for an unknown id.
        """
        if self._store is None:
            return
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None or campaign.done:
                return
            events = self._store.load_events(campaign_id)
            fresh = events[len(campaign.events):]
            for event in fresh:
                campaign.append(event["kind"], event["data"])
            if fresh:
                self._obs.count("stream.campaigns_refreshed")
                self._lock.notify_all()

    def publish(
        self, campaign_id: str, kind: str, data: Dict[str, Any]
    ) -> int:
        """Append one event; returns its sequence number (1-based).

        With a store attached the event is durably journaled *before*
        it becomes visible.  A ``cell`` event whose cell index has
        already been published (a checkpoint-prefill replay after
        resume) is dropped as a duplicate: the original sequence number
        is returned and no new event appears.

        If the store rejects the append (disk full, I/O error), the
        durable-before-visible contract is enforced rather than quietly
        abandoned: the event never becomes visible, the campaign is
        failed with a terminal ``error`` event, the
        ``stream.durability_degraded`` counter fires, and
        :class:`~repro.errors.ServiceError` is raised so the runner
        stops computing cells nobody could ever resume.  A *terminal*
        event that cannot be journaled still becomes visible (clients
        need closure) but the campaign is marked ``durable: false`` in
        its meta — a restart will resume and re-finish it durably.
        """
        with self._lock:
            campaign = self._require(campaign_id)
            if campaign.done:
                raise ConfigurationError(
                    f"campaign {campaign_id!r} is already {campaign.state}"
                )
            if kind == "cell" and isinstance(data.get("cell"), int):
                seen = campaign.seen_cells.get(data["cell"])
                if seen is not None:
                    self._obs.count("stream.duplicates_skipped")
                    return seen
            if self._store is not None:
                pending = {
                    "seq": len(campaign.events) + 1,
                    "kind": kind,
                    "data": dict(data),
                }
                if not self._store.append_event(campaign_id, pending):
                    return self._lose_durability(campaign, kind, data)
            event = campaign.append(kind, data)
            if self._store is not None and campaign.done:
                self._store.close(campaign_id)
            self._obs.count("stream.events")
            self._lock.notify_all()
            return event["seq"]

    def _lose_durability(
        self, campaign: _Campaign, kind: str, data: Dict[str, Any]
    ) -> int:
        """Handle a rejected store append; callers hold the lock."""
        self._obs.count("stream.durability_degraded")
        campaign.meta["durable"] = False
        if kind in TERMINAL_KINDS:
            event = campaign.append(kind, data)
            self._store.close(campaign.id)
            self._lock.notify_all()
            return event["seq"]
        message = (
            f"durability lost: could not journal a {kind!r} event for "
            f"campaign {campaign.id!r}"
        )
        error = campaign.append("error", {"error": message})
        self._store.append_event(campaign.id, error)  # best effort
        self._store.close(campaign.id)
        self._obs.count("stream.events")
        self._lock.notify_all()
        raise ServiceError(message)

    def finish(self, campaign_id: str, summary: Optional[Dict[str, Any]] = None) -> None:
        """Publish the terminal ``done`` event."""
        self.publish(campaign_id, "done", summary or {})

    def fail(self, campaign_id: str, message: str) -> None:
        """Publish the terminal ``error`` event."""
        self.publish(campaign_id, "error", {"error": message})

    # -- reads ---------------------------------------------------------------
    def snapshot(self, campaign_id: str) -> Dict[str, Any]:
        """Current state of one campaign (meta + progress), JSON-ready."""
        with self._lock:
            return self._require(campaign_id).snapshot()

    def list(self) -> List[Dict[str, Any]]:
        """Snapshots of every known campaign, oldest first."""
        with self._lock:
            return [campaign.snapshot() for campaign in self._campaigns.values()]

    def events_since(
        self, campaign_id: str, after: int = 0
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Buffered events with ``seq > after`` and whether the campaign is done."""
        with self._lock:
            campaign = self._require(campaign_id)
            return list(campaign.events[after:]), campaign.done

    def subscribe(
        self,
        campaign_id: str,
        after: int = 0,
        poll_s: float = 0.25,
        idle_timeout_s: float = 300.0,
    ) -> Iterator[Dict[str, Any]]:
        """Yield events in order: replay the buffer, then tail until done.

        Ends after the terminal event, or after *idle_timeout_s* without
        any new event (a safety valve so an abandoned campaign cannot
        pin a subscriber thread forever).
        """
        cursor = after
        deadline = time.monotonic() + idle_timeout_s
        while True:
            with self._lock:
                campaign = self._require(campaign_id)
                fresh = list(campaign.events[cursor:])
                done = campaign.done
                if not fresh and not done:
                    self._lock.wait(timeout=poll_s)
                    fresh = list(campaign.events[cursor:])
                    done = campaign.done
            for event in fresh:
                yield event
            cursor += len(fresh)
            if fresh:
                deadline = time.monotonic() + idle_timeout_s
            if done and not fresh:
                return
            if time.monotonic() > deadline:
                return

    # -- retention -----------------------------------------------------------
    def reap(self) -> int:
        """Evict finished campaigns past the TTL; returns how many.

        With a store attached this is also the disk-retention hook:
        long-finished campaign logs past the store's GC window are
        deleted (lease-guarded, so a sibling's live campaign is never
        touched), bounding on-disk growth alongside in-memory growth.
        """
        with self._lock:
            before = len(self._campaigns)
            self._evict_finished()
            evicted = before - len(self._campaigns)
        if self._store is not None:
            self._store.gc(obs=self._obs)
        return evicted

    def evicted_hint(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        """The 410 resume hint for an evicted id, or ``None``."""
        with self._lock:
            hint = self._evicted.get(campaign_id)
            return dict(hint) if hint is not None else None

    # -- internals -----------------------------------------------------------
    def _require(self, campaign_id: str) -> _Campaign:
        campaign = self._campaigns.get(campaign_id)
        if campaign is not None:
            return campaign
        if self._store is not None:
            # Eviction with a store only forgot the fast copy: rebuild
            # the campaign from its manifest + event log transparently.
            manifest = self._store.load_manifest(campaign_id)
            if manifest is not None:
                campaign = self._replay(campaign_id, manifest)
                self._campaigns[campaign_id] = campaign
                self._evicted.pop(campaign_id, None)
                self._obs.count("stream.campaigns_reloaded")
                return campaign
        if campaign_id in self._evicted:
            raise CampaignEvicted(campaign_id, dict(self._evicted[campaign_id]))
        raise KeyError(campaign_id)

    def _replay(self, campaign_id: str, manifest: Dict[str, Any]) -> _Campaign:
        """Rebuild one campaign from its manifest and durable event log."""
        meta = manifest.get("meta")
        campaign = _Campaign(campaign_id, dict(meta) if isinstance(meta, dict) else {})
        for event in self._store.load_events(campaign_id):
            campaign.append(event["kind"], event["data"])
        return campaign

    def _evict_finished(self) -> None:
        """Apply both retention bounds; callers hold the lock."""
        now = time.time()
        finished = sorted(
            (c for c in self._campaigns.values() if c.done),
            key=lambda c: c.finished_s or c.created_s,
        )
        doomed: Dict[str, _Campaign] = {}
        if self._finished_ttl_s is not None:
            for campaign in finished:
                age = now - (campaign.finished_s or campaign.created_s)
                if age > self._finished_ttl_s:
                    doomed[campaign.id] = campaign
        survivors = [c for c in finished if c.id not in doomed]
        for campaign in survivors[: max(0, len(survivors) - self._max_finished)]:
            doomed[campaign.id] = campaign
        for campaign in doomed.values():
            self._campaigns.pop(campaign.id, None)
            hint: Dict[str, Any] = {"campaign_id": campaign.id}
            for key in ("scenario", "fingerprint", "execution"):
                if key in campaign.meta:
                    hint[key] = campaign.meta[key]
            hint["resume"] = "POST /v1/scenario re-creates this campaign"
            self._evicted[campaign.id] = hint
            while len(self._evicted) > MAX_EVICTED_HINTS:
                self._evicted.popitem(last=False)
            self._obs.count("stream.evictions")


def sse_render(event: Dict[str, Any]) -> bytes:
    """One hub event as a Server-Sent Events frame."""
    import json

    return (
        f"id: {event['seq']}\n"
        f"event: {event['kind']}\n"
        f"data: {json.dumps(event['data'], sort_keys=True)}\n\n"
    ).encode("utf-8")


def parse_sse(lines: Iterator[str]) -> Iterator[Dict[str, Any]]:
    """Parse an SSE byte-line stream back into hub-shaped events.

    The inverse of :func:`sse_render` for the fields it emits; used by
    the client's ``stream`` helper and the tests.
    """
    import json

    seq: Optional[int] = None
    kind = "message"
    data_lines: List[str] = []
    for raw in lines:
        line = raw.rstrip("\n").rstrip("\r")
        if line == "":
            if data_lines:
                yield {
                    "seq": seq,
                    "kind": kind,
                    "data": json.loads("\n".join(data_lines)),
                }
            seq, kind, data_lines = None, "message", []
            continue
        if line.startswith(":"):
            continue  # comment / keep-alive
        field, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if field == "id":
            try:
                seq = int(value)
            except ValueError:
                seq = None
        elif field == "event":
            kind = value
        elif field == "data":
            data_lines.append(value)
    if data_lines:
        yield {"seq": seq, "kind": kind, "data": json.loads("\n".join(data_lines))}
