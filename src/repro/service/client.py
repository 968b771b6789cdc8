"""HTTP client and load generators for the scheduling service.

The client speaks the ``/v1`` JSON protocol over ``urllib`` (no
third-party deps).  The load generators drive *any* transport — they
take a ``send(request) -> (status, payload)`` callable — so the same
harness measures the HTTP stack end-to-end or the broker in-process:

* **closed loop** — ``concurrency`` virtual users issue requests
  back-to-back; throughput is limited by service latency (measures
  capacity).
* **open loop** — requests arrive on a fixed schedule at ``rate_rps``
  regardless of completions (measures behaviour under offered load, the
  regime where admission control matters; a closed loop can never
  overload the service, an open loop can).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..errors import ServiceError
from ..obs.instruments import percentile
from .stream import TERMINAL_KINDS, parse_sse

#: A transport: JSON request dict in, (HTTP-like status, payload) out.
SendFn = Callable[[Dict[str, Any]], Tuple[int, Dict[str, Any]]]

#: Failure classes a dropped stream or dead server produces at this
#: layer: socket-level errors (``urllib``'s ``URLError`` is an
#: ``OSError``) plus protocol-level carnage from a SIGKILL mid-response.
STREAM_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class ServiceClient:
    """Minimal JSON client for one service base URL."""

    def __init__(self, url: str, timeout_s: float = 120.0):
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s

    def _get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        return self._fetch(self.url + path)

    def _post(self, path: str, request: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        return self._fetch(
            urllib.request.Request(
                self.url + path,
                data=json.dumps(request).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
        )

    def _fetch(self, target: Any) -> Tuple[int, Dict[str, Any]]:
        try:
            with urllib.request.urlopen(target, timeout=self.timeout_s) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            return exc.code, _body_of(exc)

    def query(self, request: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """POST one query; returns ``(status, payload)``, raising only on
        transport (socket-level) failures."""
        return self._post("/v1/query", request)

    def health(self) -> Tuple[int, Dict[str, Any]]:
        return self._get("/v1/health")

    def metrics(self) -> Tuple[int, Dict[str, Any]]:
        return self._get("/v1/metrics")

    def submit_scenario(
        self, request: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """POST a scenario campaign (``{"pack": name}`` or inline doc)."""
        return self._post("/v1/scenario", request)

    def stream(
        self, campaign_id: str, after: int = 0
    ) -> Iterator[Dict[str, Any]]:
        """Follow ``/v1/stream/{campaign_id}`` as parsed SSE events.

        Yields hub-shaped events (``{"seq", "kind", "data"}``) until the
        server closes the stream after the terminal ``done``/``error``
        event.  Raises :class:`urllib.error.HTTPError` on non-200 (e.g.
        an unknown campaign id).
        """
        response = urllib.request.urlopen(
            f"{self.url}/v1/stream/{campaign_id}?after={int(after)}",
            timeout=self.timeout_s,
        )
        try:
            lines = (line.decode("utf-8") for line in response)
            for event in parse_sse(lines):
                yield event
        finally:
            response.close()

    def resume_scenario(
        self,
        request: Dict[str, Any],
        after: int = 0,
        max_reconnects: int = 8,
        reconnect_delay_s: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
    ) -> Iterator[Dict[str, Any]]:
        """Submit a scenario and stream it to completion, crash or not.

        The resume-by-fingerprint loop: (re-)POST the scenario — which
        is idempotent when the server runs with a checkpoint dir, so a
        re-submission attaches to the running campaign, returns the
        finished one, or resumes a crashed one — then follow its stream
        from the last event this generator has already yielded.  A
        dropped connection or a dead/restarting server costs one
        reconnect from the budget (any successfully yielded event
        refills it); events are deduplicated by sequence number, so the
        caller sees one gapless, duplicate-free sequence ending in the
        terminal ``done``/``error`` event no matter how many times the
        server died along the way.

        *after* starts past events already consumed (e.g. by an earlier
        process).  Raises :class:`~repro.errors.ServiceError` on a
        non-200 submission (a malformed scenario never resolves itself)
        or when the reconnect budget is exhausted.
        """
        campaign_id: Optional[str] = None

        def attach(last_seen: int) -> Iterator[Dict[str, Any]]:
            nonlocal campaign_id
            campaign_id = None
            campaign_id = submitted_campaign(*self.submit_scenario(request))
            return self.stream(campaign_id, after=last_seen)

        def lost() -> str:
            what = campaign_id if campaign_id is not None else "scenario"
            return f"stream for {what!r} lost after {max_reconnects} reconnects"

        return follow_campaign(
            attach, after, max_reconnects, reconnect_delay_s, sleep, lost
        )


def submitted_campaign(status: int, payload: Dict[str, Any]) -> str:
    """The campaign id of a scenario submission answer; raises on non-200."""
    if status != 200:
        raise ServiceError(
            f"scenario submission failed ({status}): "
            f"{payload.get('error', payload)}"
        )
    return payload["campaign_id"]


def follow_campaign(
    attach: Callable[[int], Iterable[Dict[str, Any]]],
    after: int,
    max_reconnects: int,
    reconnect_delay_s: float,
    sleep: Callable[[float], None],
    lost: Callable[[], str],
) -> Iterator[Dict[str, Any]]:
    """The reconnect loop behind every ``resume_scenario``.

    ``attach(last_seen)`` (re-)submits the scenario somewhere and returns
    its event stream from ``?after=last_seen``.  Events are deduplicated
    by sequence number and the loop ends after the terminal event.  A
    stream that ends early or a transport error costs one reconnect from
    the budget (any yielded event refills it), then ``sleep`` for
    *reconnect_delay_s*; past *max_reconnects* the loop raises
    :class:`~repro.errors.ServiceError` with the message ``lost()``.
    """
    last_seen = int(after)
    failures = 0
    while True:
        try:
            for event in attach(last_seen):
                seq = event.get("seq")
                if isinstance(seq, int):
                    if seq <= last_seen:
                        continue  # duplicate from an overlapping replay
                    last_seen = seq
                failures = 0
                yield event
                if event.get("kind") in TERMINAL_KINDS:
                    return
            # Stream closed without a terminal event: the server is
            # draining or the subscriber idled out — reconnect.
        except STREAM_TRANSPORT_ERRORS:
            pass
        failures += 1
        if failures > max_reconnects:
            raise ServiceError(lost())
        sleep(reconnect_delay_s)


def _body_of(exc: urllib.error.HTTPError) -> Dict[str, Any]:
    """Decode an error response, folding useful headers into the payload.

    A shed response's ``Retry-After`` header is mirrored into the body
    as ``retry_after_s`` when the server did not already include it, so
    transports that only surface ``(status, payload)`` — the load
    generators, :class:`~repro.service.retry.RetryingClient` — still see
    the server's pacing hint.
    """
    try:
        payload = json.loads(exc.read().decode("utf-8"))
    except (ValueError, UnicodeDecodeError, OSError):
        payload = {"ok": False, "error": str(exc)}
    if isinstance(payload, dict) and "retry_after_s" not in payload:
        header = exc.headers.get("Retry-After") if exc.headers else None
        if header is not None:
            try:
                payload["retry_after_s"] = float(header)
            except ValueError:
                pass  # RFC also allows HTTP-dates; ignore those
    return payload


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    requests: int = 0
    ok: int = 0
    shed: int = 0          #: 503 — dropped by admission control
    timeouts: int = 0      #: 504 — per-request deadline expired
    failures: int = 0      #: anything else non-200
    wall_s: float = 0.0
    #: Worst lateness of an open-loop arrival vs its schedule, seconds
    #: (0 for closed loops); large slip means the generator, not the
    #: service, was the bottleneck and the run under-offered.
    max_slip_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        if self.wall_s <= 0:
            return 0.0
        return self.requests / self.wall_s

    @property
    def dropped(self) -> int:
        """Requests that got no answer: shed + timed out + failed."""
        return self.shed + self.timeouts + self.failures

    def latency_percentiles(
        self, quantiles: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Dict[str, float]:
        return {
            f"p{int(q * 100)}": percentile(self.latencies_s, q) for q in quantiles
        }

    def _count(self, status: int, latency_s: float, lock: threading.Lock) -> None:
        with lock:
            self.requests += 1
            self.latencies_s.append(latency_s)
            if status == 200:
                self.ok += 1
            elif status == 503:
                self.shed += 1
            elif status == 504:
                self.timeouts += 1
            else:
                self.failures += 1


def run_closed_loop(
    send: SendFn,
    requests: Sequence[Dict[str, Any]],
    concurrency: int = 4,
) -> LoadReport:
    """Drive *requests* with ``concurrency`` back-to-back virtual users."""
    report = LoadReport()
    lock = threading.Lock()
    cursor = {"next": 0}

    def worker() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(requests):
                    return
                cursor["next"] = index + 1
            start = time.perf_counter()
            status, _ = send(requests[index])
            report._count(status, time.perf_counter() - start, lock)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(max(1, concurrency))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_s = time.perf_counter() - started
    return report


def run_open_loop(
    send: SendFn,
    requests: Sequence[Dict[str, Any]],
    rate_rps: float,
    workers: int = 32,
) -> LoadReport:
    """Offer *requests* at a fixed arrival rate, regardless of completions.

    Arrival *i* is scheduled at ``i / rate_rps`` seconds; a worker pool
    wide enough to cover the expected outstanding count executes them.
    ``max_slip_s`` reports how far the generator fell behind its own
    schedule — sanity-check it stays small, or the run measured the
    generator.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    report = LoadReport()
    lock = threading.Lock()
    epoch = time.perf_counter()
    cursor = {"next": 0}

    def worker() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(requests):
                    return
                cursor["next"] = index + 1
            scheduled = epoch + index / rate_rps
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            else:
                with lock:
                    report.max_slip_s = max(report.max_slip_s, -delay)
            start = time.perf_counter()
            status, _ = send(requests[index])
            report._count(status, time.perf_counter() - start, lock)

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(max(1, workers))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_s = time.perf_counter() - epoch
    return report


def broker_send(service) -> SendFn:
    """An in-process transport over a :class:`ScheduleService`.

    Maps service exceptions to the same status codes the HTTP layer
    uses, so load reports are comparable across transports.
    """
    from .broker import AdmissionError, RequestTimeout
    from .query import QueryError

    def send(request: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, service.query_dict(request)
        except QueryError as exc:
            return 400, {"ok": False, "error": str(exc)}
        except AdmissionError as exc:
            shed = {"ok": False, "error": str(exc)}
            if exc.queue_depth is not None:
                shed["queue_depth"] = exc.queue_depth
            if exc.retry_after_s is not None:
                shed["retry_after_s"] = exc.retry_after_s
            return 503, shed
        except RequestTimeout as exc:
            return 504, {"ok": False, "error": str(exc)}

    return send
