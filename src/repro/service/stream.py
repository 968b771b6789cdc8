"""Live campaign streaming: an in-process event hub behind ``/v1/stream``.

A scenario campaign submitted to the service runs on a background
thread; every cell the executor commits becomes one sequenced event in
the campaign's event log.  Subscribers (the SSE endpoint, in-process
observers, tests) read that ordered log: a late subscriber first
*replays* the prefix, then *tails* live until the terminal event — so
the stream is a replayable record, not a lossy broadcast.

The hub is deliberately transport-free: it knows nothing about HTTP.
``/v1/stream/{campaign_id}`` renders its events as Server-Sent Events;
anything else (a CLI follower, a test) iterates :meth:`CampaignHub.subscribe`
directly.

The event log is the only copy of a campaign's events, and every read
goes to it:

* **Durability** — with a :class:`~repro.service.durability.CampaignStore`
  attached, the log is the campaign's fsynced on-disk log: an event is
  appended *before* subscribers see it, reads reload the log, and a
  subscriber re-reads it every ``poll_s``, so ``?after=N`` reconnects
  across a server crash are gapless and duplicate-free and a replica
  follows a sibling's campaign over a shared checkpoint dir.  Cell
  events deduplicate by cell index: when a resumed campaign's
  checkpoint prefill re-fires cells that already streamed before the
  crash, the hub drops the duplicates instead of re-sequencing them.
  The contract is honest about failure, too: if the disk rejects an
  append, the event is *never* shown to subscribers — the campaign
  fails loudly (``stream.durability_degraded``) rather than stream
  state a crash would silently erase.
* **Bounded retention** — without a store the log is a
  :class:`MemoryLog`.  Finished campaigns are evicted after
  ``finished_ttl_s`` seconds or beyond ``max_finished`` entries
  (oldest-finished first), counted as ``stream.evictions``.  An evicted
  id raises :class:`CampaignEvicted` (the HTTP layer's 410) carrying a
  resume hint; with a store an evicted campaign stays readable for as
  long as its manifest is on disk.  Disk retention is bounded
  separately: :meth:`CampaignHub.reap` also garbage-collects
  long-finished on-disk logs through :meth:`CampaignStore.gc`.
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


class MemoryLog:
    """The event log of a hub without a checkpoint dir.

    The ``append_event``/``load_events`` pair of
    :class:`~repro.service.durability.CampaignStore`, kept in process
    memory, so the hub reads every campaign's events the same way.
    """

    def __init__(self) -> None:
        self._events: Dict[str, List[Dict[str, Any]]] = {}

    def append_event(self, campaign_id: str, event: Dict[str, Any]) -> bool:
        self._events.setdefault(campaign_id, []).append(event)
        return True

    def load_events(self, campaign_id: str) -> List[Dict[str, Any]]:
        return list(self._events.get(campaign_id, ()))

    def forget(self, campaign_id: str) -> None:
        self._events.pop(campaign_id, None)


def _state(events: List[Dict[str, Any]]) -> str:
    """A campaign's state: the kind of its last event once terminal."""
    if events and events[-1]["kind"] in TERMINAL_KINDS:
        return events[-1]["kind"]
    return "running"


class _Campaign:
    """What the hub keeps of a campaign besides its events.

    Its meta, and the writer's state — the last seq and the seen cells
    — derived from the log when this process creates or adopts the
    campaign: only the lease holder appends, so nobody else moves the
    log's tail under it.  ``lost`` holds a terminal event the store
    refused, the one event that is not read from the log.
    """

    __slots__ = ("id", "meta", "seq", "state", "seen_cells", "lost",
                 "created_s", "finished_s")

    def __init__(
        self, campaign_id: str, meta: Dict[str, Any], events: List[Dict[str, Any]]
    ):
        self.id = campaign_id
        self.meta = meta
        self.seq = 0
        self.state = "running"
        #: cell index -> seq of the event that first reported it; the
        #: dedupe map that makes checkpoint-prefill replays idempotent.
        self.seen_cells: Dict[int, int] = {}
        self.lost: Optional[Dict[str, Any]] = None
        self.created_s = time.time()
        self.finished_s: Optional[float] = None
        for event in events:
            self.record(event)

    @property
    def done(self) -> bool:
        return self.state != "running"

    def record(self, event: Dict[str, Any]) -> None:
        """Advance the writer state past one appended event."""
        self.seq = event["seq"]
        cell = event["data"].get("cell")
        if event["kind"] == "cell" and isinstance(cell, int):
            self.seen_cells.setdefault(cell, self.seq)
        if event["kind"] in TERMINAL_KINDS:
            self.state = event["kind"]
            self.finished_s = time.time()


class CampaignHub:
    """Thread-safe registry of streaming campaigns over one event log.

    One condition variable serialises publishes and wakes every waiting
    subscriber; events are small dicts and campaigns are cell-bounded,
    so every read simply loads the campaign's whole log (``?after=N``
    resumption slices it).
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
        self._log: Any = store if store is not None else MemoryLog()
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
            self._campaigns[campaign_id] = _Campaign(
                campaign_id, dict(meta), self._log.load_events(campaign_id)
            )
            self._evicted.pop(campaign_id, None)
            self._evict_finished()
            self._obs.count("stream.campaigns")
        return campaign_id

    def publish(
        self, campaign_id: str, kind: str, data: Dict[str, Any]
    ) -> int:
        """Append one event; returns its sequence number (1-based).

        With a store attached the event is durably journaled *before*
        it becomes visible.  A ``cell`` event whose cell index has
        already been published (a checkpoint-prefill replay after
        resume) is dropped as a duplicate: the original sequence number
        is returned and no new event appears.  Publishing to a campaign
        this hub did not create adopts it: the caller holds its lease,
        and the writer state is derived from the log.

        If the store rejects the append (disk full, I/O error), the
        durable-before-visible contract is enforced rather than quietly
        abandoned: the event never becomes visible, the campaign is
        failed with a terminal ``error`` event, the
        ``stream.durability_degraded`` counter fires, and
        :class:`~repro.errors.ServiceError` is raised so the runner
        stops computing cells nobody could ever resume.  The terminal
        event (the refused one, or the error in place of a refused
        cell) is offered to the store once more; if that fails too it
        still becomes visible (clients need closure) from memory, and
        the campaign is marked ``durable: false`` in its meta — a
        restart will resume and re-finish it durably.
        """
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                meta, events = self._read(campaign_id)
                campaign = _Campaign(campaign_id, meta, events)
                self._campaigns[campaign_id] = campaign
            if campaign.done:
                raise ConfigurationError(
                    f"campaign {campaign_id!r} is already {campaign.state}"
                )
            if kind == "cell" and isinstance(data.get("cell"), int):
                seen = campaign.seen_cells.get(data["cell"])
                if seen is not None:
                    self._obs.count("stream.duplicates_skipped")
                    return seen
            event = {"seq": campaign.seq + 1, "kind": kind, "data": dict(data)}
            message = None
            if not self._log.append_event(campaign_id, event):
                self._obs.count("stream.durability_degraded")
                campaign.meta["durable"] = False
                if kind not in TERMINAL_KINDS:
                    message = (
                        f"durability lost: could not journal a {kind!r} "
                        f"event for campaign {campaign_id!r}"
                    )
                    event = dict(event, kind="error", data={"error": message})
                if not self._log.append_event(campaign_id, event):
                    campaign.lost = event
            campaign.record(event)
            if self._store is not None and campaign.done:
                self._store.close(campaign_id)
            self._obs.count("stream.events")
            self._lock.notify_all()
        if message is not None:
            raise ServiceError(message)
        return event["seq"]

    def finish(self, campaign_id: str, summary: Optional[Dict[str, Any]] = None) -> None:
        """Publish the terminal ``done`` event."""
        self.publish(campaign_id, "done", summary or {})

    def fail(self, campaign_id: str, message: str) -> None:
        """Publish the terminal ``error`` event."""
        self.publish(campaign_id, "error", {"error": message})

    # -- reads ---------------------------------------------------------------
    def snapshot(self, campaign_id: str) -> Dict[str, Any]:
        """Current state of one campaign (meta + progress), JSON-ready."""
        meta, events = self._read(campaign_id)
        return {
            "campaign_id": campaign_id,
            "state": _state(events),
            "events": len(events),
            "meta": meta,
        }

    def list(self) -> List[Dict[str, Any]]:
        """Snapshots of every campaign this hub holds, oldest first."""
        with self._lock:
            return [self.snapshot(campaign_id) for campaign_id in self._campaigns]

    def events_since(
        self, campaign_id: str, after: int = 0
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Logged events with ``seq > after`` and whether the campaign is done."""
        _, events = self._read(campaign_id)
        return events[after:], _state(events) != "running"

    def subscribe(
        self,
        campaign_id: str,
        after: int = 0,
        poll_s: float = 0.25,
        idle_timeout_s: float = 300.0,
    ) -> Iterator[Dict[str, Any]]:
        """Yield events in order: replay the log, then tail until done.

        A publish in this process wakes the subscriber at once; every
        *poll_s* it re-reads the log anyway, which is how it follows a
        campaign a sibling replica appends to.  Ends after the terminal
        event, or after *idle_timeout_s* without any new event (a safety
        valve so an abandoned campaign cannot pin a subscriber thread
        forever).
        """
        cursor = after
        deadline = time.monotonic() + idle_timeout_s
        while True:
            with self._lock:
                fresh, done = self.events_since(campaign_id, cursor)
                if not fresh and not done:
                    self._lock.wait(timeout=poll_s)
                    fresh, done = self.events_since(campaign_id, cursor)
            for event in fresh:
                yield event
            cursor += len(fresh)
            if fresh:
                deadline = time.monotonic() + idle_timeout_s
            if done or time.monotonic() > deadline:
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
    def _read(
        self, campaign_id: str
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """One campaign's meta and its events, read from the log.

        A campaign is known if this hub holds it or, with a store, if
        its manifest is on disk (a sibling's campaign, or one this hub
        evicted or held before a restart).
        """
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is not None:
                meta, lost = dict(campaign.meta), campaign.lost
            else:
                manifest = (
                    self._store.load_manifest(campaign_id)
                    if self._store is not None else None
                )
                if manifest is None:
                    hint = self._evicted.get(campaign_id)
                    if hint is not None:
                        raise CampaignEvicted(campaign_id, dict(hint))
                    raise KeyError(campaign_id)
                meta = manifest.get("meta")
                meta = dict(meta) if isinstance(meta, dict) else {}
                lost = None
            events = self._log.load_events(campaign_id)
        if lost is not None and len(events) == lost["seq"] - 1:
            events.append(lost)
        return meta, events

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
            if self._store is None:
                self._log.forget(campaign.id)
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
