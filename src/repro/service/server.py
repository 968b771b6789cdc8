"""The stdlib HTTP front end and the service facade.

:class:`ScheduleService` wires one cache and one broker around one
obs registry; it is the object both the HTTP server and in-process
callers (the CLI's ``lpfps query`` without ``--url``, the benchmarks)
talk to.

The HTTP layer is deliberately thin — ``http.server`` from the standard
library, threads per connection, JSON in/out — because the interesting
machinery (admission, dedupe, batching, caching) all lives below the
transport in the broker.  Endpoints:

* ``POST /v1/query`` — body is a JSON request
  (:func:`repro.service.query.parse_query`), plus an optional
  ``timeout_s`` transport field; answers 200 with the payload,
  400 on malformed queries, 503 when shed by admission control
  (with ``Retry-After``), 504 on per-request timeout.
* ``GET /v1/health`` — liveness.
* ``GET /v1/metrics`` — the service's obs registry (request and cache
  counters, latency percentiles, broker stage spans, campaign gauges)
  as one bench-metrics/v1 ``tests.service`` entry.
* ``GET /v1/schedulers`` / ``GET /v1/workloads`` — registry listings.
* ``GET /v1/scenarios`` — bundled scenario pack names.
* ``POST /v1/scenario`` — validate a scenario (``{"pack": name}`` or
  ``{"scenario": {...}}``) and launch its campaign on a background
  thread; answers with the campaign id and its stream path.
* ``GET /v1/stream/{campaign_id}`` — Server-Sent Events: replays the
  campaign's logged progress events, then tails live until done.
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..errors import ConfigurationError, ServiceError, error_kind
from ..obs.registry import Registry, install
from ..tasks.document import number
from .broker import AdmissionError, Broker, RequestTimeout, ServiceGuards
from .cache import ResultCache, scrub_cache
from .durability import CampaignStore, campaign_key
from .query import Query, QueryError, parse_query
from .stream import CampaignEvicted, CampaignHub, TERMINAL_KINDS, sse_render

#: Kernel paths a scenario campaign may request.
EXECUTION_MODES = ("exact", "fast")

#: Largest accepted request body, bytes — queries are small; anything
#: bigger is a mistake or abuse.
MAX_BODY_BYTES = 1_000_000

#: Default taxonomy entry per HTTP status, for errors raised at the
#: transport layer itself (bad paths, unparseable bodies) where no
#: library exception exists to classify.
_STATUS_KINDS = {
    400: "bad-request",
    404: "bad-request",
    410: "gone",
    503: "overload",
    504: "timeout",
    500: "internal",
}


class ScheduleService:
    """One serving stack: registry + two-tier cache + micro-batching broker."""

    def __init__(
        self,
        cache_dir: Union[None, str, Path] = None,
        memory_items: int = 1024,
        guards: Optional[ServiceGuards] = None,
        jobs: Optional[int] = 0,
        checkpoint_dir: Union[None, str, Path] = None,
        scrub_on_start: bool = True,
    ):
        #: Every counter, latency window, span and gauge of the whole
        #: stack, surfaced by ``GET /v1/metrics``.
        self.obs = Registry()
        if scrub_on_start and cache_dir is not None:
            # Quarantine anything a crash or bit rot left behind before
            # the first request can ask for it; the scrub counters land
            # on /v1/metrics through the same registry.
            scrub_cache(cache_dir, repair=True, obs=self.obs)
        self.cache = ResultCache(
            memory_items=memory_items, disk_dir=cache_dir, obs=self.obs
        )
        self.broker = Broker(
            cache=self.cache, guards=guards, jobs=jobs, obs=self.obs
        )
        #: Checkpoint directory shared by the cell journal and the
        #: campaign store; None keeps campaigns memory-only (pre-PR 10).
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        store: Optional[CampaignStore] = None
        if self.checkpoint_dir is not None:
            store = CampaignStore(self.checkpoint_dir)
            if scrub_on_start:
                # Truncating torn event-log suffixes *before* replay is
                # what keeps post-restart appends gapless: new events
                # must land directly after the intact prefix.  The cell
                # journal only gets a report-only pass — its reader is
                # already corruption-tolerant — so the scrub counters
                # still reach /v1/metrics.
                from ..experiments.checkpoint import scrub_journal

                store.scrub(repair=True, obs=self.obs)
                scrub_journal(self.checkpoint_dir, repair=False, obs=self.obs)
                # Startup GC keeps a long-lived deployment's campaign
                # state (and therefore restart replay cost) bounded:
                # long-finished logs are reclaimed, running siblings'
                # are lease-protected.
                store.gc(obs=self.obs)
        #: Live scenario-campaign event logs, served by ``/v1/stream``.
        self.campaigns = CampaignHub(obs=self.obs, store=store)
        self._campaign_lock = threading.Lock()
        #: Campaign ids with a runner thread alive in *this* process.
        self._active_campaigns: set = set()

    def query(self, query: Query, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Answer one parsed :class:`Query`."""
        return self.broker.query(query, timeout=timeout)

    def query_dict(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Answer one JSON request body (the HTTP entry point).

        ``timeout_s`` is a transport-level field — it bounds the wait,
        not the answer — so it is stripped before parsing and never
        reaches the fingerprint.
        """
        timeout = None
        if isinstance(request, Mapping):  # anything else fails in parse_query
            request = dict(request)
            timeout = request.pop("timeout_s", None)
        if timeout is not None:
            try:
                timeout = number(timeout, "timeout_s", positive=True)
            except ConfigurationError as exc:
                raise QueryError(str(exc)) from None
        return self.query(parse_query(request), timeout=timeout)

    def submit_scenario(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate a scenario request and launch (or resume) its campaign.

        The body names a bundled pack (``{"pack": "cnc"}``) or inlines a
        document (``{"scenario": {...}}``), plus optional ``jobs`` and
        ``execution`` (``"exact"``/``"fast"``) knobs.  Validation is
        synchronous — a malformed scenario is rejected here with a
        field-level error — but the campaign itself runs on a daemon
        thread, publishing one ``cell`` event per finished cell into
        :attr:`campaigns` and a terminal ``done`` (or ``error``) event,
        so ``GET /v1/stream/{campaign_id}`` can follow it live.

        With a checkpoint dir the submission is **idempotent**: the
        campaign id is content-addressed from the scenario fingerprint
        and the execution mode, the campaign intent is persisted in a
        write-ahead manifest before any cell runs, and re-submitting the
        identical document attaches to the running campaign, returns the
        finished one, or *resumes* a crashed one — prefilling every
        journaled cell and recomputing only the tail.
        """
        from ..scenarios import load_pack, parse_scenario

        request = dict(request)
        pack = request.pop("pack", None)
        document = request.pop("scenario", None)
        jobs = request.pop("jobs", 1)
        execution = request.pop("execution", "exact")
        if request:
            raise QueryError(f"unknown fields: {sorted(request)}")
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise QueryError(f"jobs must be an integer >= 1, got {jobs!r}")
        if execution not in EXECUTION_MODES:
            raise QueryError(
                f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
            )
        if (pack is None) == (document is None):
            raise QueryError("give exactly one of 'pack' or 'scenario'")
        if pack is not None:
            if not isinstance(pack, str):
                raise QueryError(f"pack must be a string, got {pack!r}")
            scenario = load_pack(pack)
        else:
            if not isinstance(document, Mapping):
                raise QueryError(f"scenario must be an object, got {document!r}")
            scenario = parse_scenario(document)
        cells = len(scenario.campaign.schedulers) * len(scenario.campaign.seeds)
        fingerprint = scenario.fingerprint()
        meta = {
            "scenario": scenario.name,
            "fingerprint": fingerprint,
            "cells": cells,
            "execution": execution,
        }
        payload = {
            "ok": True,
            "scenario": scenario.name,
            "fingerprint": fingerprint,
            "cells": cells,
            "execution": execution,
        }
        store = self.campaigns.store
        if store is None:
            campaign_id = self.campaigns.create(meta)
            with self._campaign_lock:
                self._active_campaigns.add(campaign_id)
            self._launch_campaign(scenario, jobs, execution, campaign_id)
            payload.update(
                campaign_id=campaign_id,
                stream=f"/v1/stream/{campaign_id}",
                state="running",
            )
            return payload
        campaign_id = campaign_key(fingerprint, execution)
        payload.update(
            campaign_id=campaign_id, stream=f"/v1/stream/{campaign_id}"
        )
        with self._campaign_lock:
            snapshot = self._snapshot(campaign_id)
            if snapshot is not None and snapshot["state"] in TERMINAL_KINDS:
                # Finished: the event log *is* the answer, idempotently.
                payload.update(
                    state=snapshot["state"], events=snapshot["events"]
                )
                return payload
            if campaign_id in self._active_campaigns:
                # Running here: attach, never start a second runner.
                payload.update(state="running", attached=True)
                return payload
            if not store.acquire_lease(campaign_id):
                # Running on a sibling replica over the same checkpoint
                # dir: two writers on one event log would interleave
                # conflicting seq numbers, so attach instead — the
                # sibling's events are durable and readable from here.
                payload.update(state="running", attached=True)
                return payload
            # Adoption: we now own whatever the previous owner durably
            # wrote, and the next publish continues its log.
            snapshot = self._adopt(store, campaign_id)
            if snapshot is not None and snapshot["state"] in TERMINAL_KINDS:
                # The previous owner had in fact finished it.
                store.release_lease(campaign_id)
                payload.update(
                    state=snapshot["state"], events=snapshot["events"]
                )
                return payload
            resumed = snapshot is not None
            # Write-ahead: intent is durable before the campaign exists
            # anywhere else, so a crash at any later instant leaves a
            # resumable manifest, never a half-registered campaign.
            store.write_manifest(
                campaign_id,
                {
                    "meta": meta,
                    "scenario_document": scenario.canonical_document(),
                    "fingerprint": fingerprint,
                    "jobs": jobs,
                    "execution": execution,
                    "created_s": time.time(),
                },
            )
            if snapshot is None:
                self.campaigns.create(meta, campaign_id=campaign_id)
            self._active_campaigns.add(campaign_id)
        self._launch_campaign(scenario, jobs, execution, campaign_id)
        payload.update(state="running", resumed=resumed)
        return payload

    def _snapshot(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        """The hub's snapshot of *campaign_id*, or ``None`` if unknown."""
        try:
            return self.campaigns.snapshot(campaign_id)
        except KeyError:
            return None

    def _adopt(
        self, store: CampaignStore, campaign_id: str
    ) -> Optional[Dict[str, Any]]:
        """Repair a just-leased campaign's log; its snapshot after that.

        The torn tail a crashed owner left must go *before* we append:
        appending after a corrupt line would strand every later event
        beyond the readable prefix.
        """
        store.repair_log(campaign_id)
        return self._snapshot(campaign_id)

    def _launch_campaign(
        self, scenario: Any, jobs: int, execution: str, campaign_id: str
    ) -> None:
        """Run one campaign on a daemon thread, streaming into the hub."""
        from ..scenarios.runner import run_scenario

        hub, obs = self.campaigns, self.obs
        checkpoint = self.checkpoint_dir

        def work() -> None:
            install(obs)  # campaign gauges land in /v1/metrics, like queries
            try:
                report = run_scenario(
                    scenario,
                    jobs=jobs,
                    execution=execution,
                    checkpoint=checkpoint,
                    progress=lambda event: hub.publish(campaign_id, "cell", event),
                )
                summary: Dict[str, Any] = {
                    "scenario": scenario.name,
                    "fingerprint": report.fingerprint,
                    "cells": len(report.cells),
                    "failed": sum(1 for cell in report.cells if cell.failed),
                }
                if scenario.constraints:
                    summary["weakly_hard"] = report.satisfied_by_scheduler()
                hub.finish(campaign_id, summary)
            except Exception as exc:  # terminal event, never a dead stream
                try:
                    hub.fail(campaign_id, str(exc))
                except Exception:
                    pass
            finally:
                with self._campaign_lock:
                    self._active_campaigns.discard(campaign_id)
                if hub.store is not None:
                    # Hand the campaign's cross-process lease back so a
                    # sibling (or a later resubmission) can own it.
                    hub.store.release_lease(campaign_id)

        threading.Thread(
            target=work, name=f"lpfps-campaign-{campaign_id}", daemon=True
        ).start()

    def resume_campaigns(self) -> list:
        """Relaunch every orphaned campaign found in the checkpoint dir.

        An orphan is a persisted manifest whose event log has no
        terminal event and no runner in this process — exactly what a
        crashed (or supervisor-restarted) replica leaves behind.  Each
        one is re-parsed from its manifest's canonical scenario document
        and resumed through the checkpoint journal, so committed cells
        prefill and the stream continues gaplessly.  Returns the resumed
        campaign ids; without a checkpoint dir this is a no-op.
        """
        from ..scenarios import parse_scenario

        store = self.campaigns.store
        if store is None:
            return []
        resumed = []
        for campaign_id, manifest in store.list_manifests().items():
            with self._campaign_lock:
                snapshot = self._snapshot(campaign_id)
                if (
                    snapshot is None
                    or snapshot["state"] in TERMINAL_KINDS
                    or campaign_id in self._active_campaigns
                ):
                    continue
                if not store.acquire_lease(campaign_id):
                    # Not an orphan: a live sibling replica owns this
                    # campaign and is (still) running it.  Adopting it
                    # here would put two writers on one event log.
                    continue
                # Same adoption step as submit_scenario, then re-check:
                # the owner may have finished it since the first read.
                snapshot = self._adopt(store, campaign_id)
                if (
                    snapshot is None
                    or snapshot["state"] in TERMINAL_KINDS
                ):
                    store.release_lease(campaign_id)
                    continue
                document = manifest.get("scenario_document")
                jobs = manifest.get("jobs", 1)
                execution = manifest.get("execution", "exact")
                try:
                    scenario = parse_scenario(document)
                    if not isinstance(jobs, int) or isinstance(jobs, bool):
                        raise ConfigurationError(f"bad jobs {jobs!r}")
                    if execution not in EXECUTION_MODES:
                        raise ConfigurationError(f"bad execution {execution!r}")
                except Exception as exc:
                    # An unresumable manifest must not strand subscribers
                    # on a forever-running stream: close it loudly (while
                    # still holding the lease, so the error event is ours
                    # to append), then hand the lease back.
                    try:
                        self.campaigns.fail(
                            campaign_id, f"unresumable manifest: {exc}"
                        )
                    except Exception:
                        pass
                    store.release_lease(campaign_id)
                    continue
                self._active_campaigns.add(campaign_id)
            self._launch_campaign(scenario, jobs, execution, campaign_id)
            self.obs.count("stream.campaigns_resumed")
            resumed.append(campaign_id)
        return resumed

    def metrics(self) -> Dict[str, Any]:
        """bench-metrics/v1 snapshot of the whole stack's registry."""
        return self.obs.to_bench_metrics(benchmark="service", test="service")

    def close(self) -> None:
        """Shut the broker down; idempotent."""
        self.broker.close()


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to the server's :class:`ScheduleService`."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two sends; with Nagle on, the body waits
    # for the client's delayed ACK (~40 ms) on a kept-alive connection.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Quiet by default; the service keeps its own counters."""

    def _reply(
        self, status: int, payload: Dict[str, Any], headers: Tuple[Tuple[str, str], ...] = ()
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, **extra: Any) -> None:
        extra.setdefault("error_kind", _STATUS_KINDS.get(status, "internal"))
        self._reply(status, {"ok": False, "error": message, **extra})

    # -- routes --------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        with self.server.track_request():
            self._get()

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        with self.server.track_request():
            self._post()

    def _get(self) -> None:
        service = self.server.service
        if self.path in ("/v1/health", "/health"):
            self._reply(200, {"ok": True, "status": "serving"})
        elif self.path in ("/v1/metrics", "/metrics"):
            self._reply(200, service.metrics())
        elif self.path == "/v1/schedulers":
            from ..schedulers.registry import available_schedulers

            self._reply(200, {"ok": True, "schedulers": available_schedulers()})
        elif self.path == "/v1/workloads":
            from ..workloads.registry import available_workloads

            self._reply(200, {"ok": True, "workloads": available_workloads()})
        elif self.path == "/v1/scenarios":
            from ..scenarios import available_packs

            self._reply(200, {"ok": True, "scenarios": available_packs()})
        elif self.path.startswith("/v1/stream/"):
            self._stream()
        else:
            self._error(404, f"unknown path {self.path!r}")

    def _stream(self) -> None:
        """Serve one campaign's event log as Server-Sent Events.

        The response is EOF-delimited (``Connection: close``, no
        Content-Length): logged events replay immediately, live events
        follow as the executor commits cells, and the stream ends after
        the terminal ``done``/``error`` event.  ``?after=N`` resumes
        past the first N events, so a dropped consumer can reconnect
        without re-reading what it already has.
        """
        parsed = urlparse(self.path)
        campaign_id = parsed.path[len("/v1/stream/"):]
        after = 0
        raw_after = parse_qs(parsed.query).get("after", ["0"])[0]
        try:
            after = int(raw_after)
        except ValueError:
            self._error(400, f"after must be an integer, got {raw_after!r}")
            return
        if after < 0:
            self._error(400, f"after must be >= 0, got {after}")
            return
        hub = self.server.service.campaigns
        try:
            hub.snapshot(campaign_id)
        except CampaignEvicted as exc:
            # The id was real; its events aged out of memory.  410 with
            # a resume hint: re-POST the scenario (idempotent whenever
            # the server has a checkpoint dir) and re-attach.
            self._error(
                410,
                f"campaign {campaign_id!r} evicted",
                resume=exc.hint,
            )
            return
        except KeyError:
            self._error(404, f"unknown campaign {campaign_id!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        try:
            for event in hub.subscribe(campaign_id, after=after):
                self.wfile.write(sse_render(event))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # the subscriber left; the campaign keeps running

    def _post(self) -> None:
        if self.path in ("/v1/query", "/query"):
            handler = self.server.service.query_dict
        elif self.path == "/v1/scenario":
            handler = self.server.service.submit_scenario
        else:
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "bad Content-Length")
            return
        if not 0 < length <= MAX_BODY_BYTES:
            self._error(400, f"body must be 1..{MAX_BODY_BYTES} bytes")
            return
        try:
            request = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._error(400, "body must be valid JSON")
            return
        try:
            payload = handler(request)
        except QueryError as exc:
            self._error(400, str(exc), error_kind=error_kind(exc))
        except ConfigurationError as exc:
            # Scenario validation failures carry their field path in the
            # message; they are the caller's to fix, hence 400.
            self._error(400, str(exc), error_kind="bad-request")
        except AdmissionError as exc:
            # Guarantee-preserving degradation: the shed answer tells the
            # client how loaded the fleet is (queue depth) and when to
            # come back (Retry-After from the broker's drain estimate,
            # mirrored into the payload so retrying clients that never
            # see headers can honor the same hint).
            shed: Dict[str, Any] = {
                "ok": False, "error": str(exc), "error_kind": error_kind(exc),
            }
            retry_after = 1
            if exc.queue_depth is not None:
                shed["queue_depth"] = exc.queue_depth
            if exc.retry_after_s is not None:
                retry_after = max(1, int(math.ceil(exc.retry_after_s)))
                shed["retry_after_s"] = exc.retry_after_s
            self._reply(
                503, shed, headers=(("Retry-After", str(retry_after)),)
            )
        except RequestTimeout as exc:
            self._error(504, str(exc), error_kind=error_kind(exc))
        except ServiceError as exc:
            self._error(500, str(exc), error_kind=error_kind(exc))
        else:
            self._reply(200, payload)


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying its :class:`ScheduleService`.

    Handler threads are daemons (an idle keep-alive connection must
    never pin the process), so graceful shutdown tracks in-flight
    *requests* instead: every ``do_GET``/``do_POST`` runs inside
    :meth:`track_request`, and :meth:`wait_idle` blocks until the last
    one finishes — the drain step between "stop accepting" and "close
    the broker".
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: ScheduleService):
        super().__init__(address, _Handler)
        self.service = service
        self._inflight = 0
        self._idle = threading.Condition()

    @contextlib.contextmanager
    def track_request(self) -> Iterator[None]:
        """Count one in-flight request for the drain bookkeeping."""
        with self._idle:
            self._inflight += 1
        try:
            yield
        finally:
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def inflight(self) -> int:
        """Requests currently being handled."""
        with self._idle:
            return self._inflight

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no request is in flight; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        return True

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(
    service: ScheduleService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind (but do not start) the HTTP front end; port 0 picks a free one."""
    return ServiceHTTPServer((host, port), service)


@contextlib.contextmanager
def running_server(
    service: ScheduleService, host: str = "127.0.0.1", port: int = 0
) -> Iterator[ServiceHTTPServer]:
    """Serve on a background thread for the duration of the block."""
    server = make_server(service, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="lpfps-http", daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()
