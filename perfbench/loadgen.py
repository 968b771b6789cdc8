"""The benchmark's own load generator: seeded, single-process, few threads.

Two loops, both over ``workers`` threads (at most ``nproc``).  Each
request goes out on a fresh HTTP connection, as the repository's own
``ServiceClient`` sends it, so at most ``workers`` are open at once:

* :func:`open_loop` sends request *i* when it is due, ``offsets[i]``
  seconds after the start, whatever happened before.  Latency is timed
  from the **due** time, so a stall that holds up later requests shows
  in their latency, and ``sent - due`` reports how late the generator
  ran.
* :func:`closed_loop` keeps every worker busy back to back for a fixed
  wall time; completed requests per second is the capacity.

The transport is a factory of ``send(body) -> (status, payload)``
callables, so tests drive the loops with fakes and an injected clock.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

SendFn = Callable[[Dict[str, Any]], Tuple[int, Dict[str, Any]]]


@dataclass
class Outcome:
    """One request as the client saw it."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    payload: Dict[str, Any]

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its answer."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent this request after it was due."""
        return self.sent - self.due


class HttpSender:
    """``send`` to ``POST /v1/query``, one fresh connection per request.

    With *keep_alive* the sender instead reuses one connection for every
    request, which only the traced run's keep-alive edge probe does.  A
    failed keep-alive connection is reopened once; a transport failure
    that persists comes back as status 0, which the workloads count as
    failed.
    """

    def __init__(self, url: str, timeout_s: float = 120.0,
                 keep_alive: bool = False):
        parsed = urlparse(url)
        self.host, self.port, self.timeout_s = parsed.hostname, parsed.port, timeout_s
        self.keep_alive = keep_alive
        self.conn: Optional[http.client.HTTPConnection] = None

    def __call__(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        data = json.dumps(body).encode("utf-8")
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout_s
                )
            try:
                self.conn.request(
                    "POST", "/v1/query", body=data,
                    headers={"Content-Type": "application/json"},
                )
                response = self.conn.getresponse()
                answer = response.status, json.loads(response.read().decode("utf-8"))
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                if attempt or not self.keep_alive:
                    return 0, {"ok": False, "error": f"transport: {exc!r}"}
                continue
            if not self.keep_alive:
                self.close()
            return answer
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _run_workers(workers: int, target: Callable[[SendFn], None],
                 send_factory: Callable[[], SendFn]) -> None:
    senders = [send_factory() for _ in range(workers)]
    errors: List[BaseException] = []

    def guarded(send: SendFn) -> None:
        try:
            target(send)
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(s,), daemon=True)
               for s in senders]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for send in senders:
            close = getattr(send, "close", None)
            if close is not None:
                close()
    if errors:
        raise errors[0]


def open_loop(
    requests: Sequence[Dict[str, Any]],
    offsets: Sequence[float],
    send_factory: Callable[[], SendFn],
    workers: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Outcome]:
    """Send ``requests[i]`` at ``start + offsets[i]``; outcomes in order.

    *offsets* must be non-decreasing.  Requests go out in index order:
    when every worker is busy a due request waits, and that wait is
    charged to its latency.
    """
    if len(requests) != len(offsets):
        raise ValueError("requests and offsets differ in length")
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = clock()

    def worker(send: SendFn) -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(requests):
                    return
                cursor[0] = i + 1
            due = start + offsets[i]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            status, payload = send(requests[i])
            outcomes[i] = Outcome(i, due, sent, clock(), status, payload)

    _run_workers(workers, worker, send_factory)
    return [o for o in outcomes if o is not None]


def closed_loop(
    request_at: Callable[[int], Dict[str, Any]],
    duration_s: float,
    send_factory: Callable[[], SendFn],
    workers: int,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[List[Outcome], float]:
    """Keep *workers* busy for *duration_s*; returns (outcomes, wall_s).

    Request *i* is ``request_at(i)``, handed out in index order.  Only
    requests sent before the deadline count; the wall time runs to the
    last answer.
    """
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    cursor = [0]
    start = clock()
    deadline = start + duration_s

    def worker(send: SendFn) -> None:
        while True:
            with lock:
                if clock() >= deadline:
                    return
                i = cursor[0]
                cursor[0] = i + 1
                body = request_at(i)
            sent = clock()
            status, payload = send(body)
            outcome = Outcome(i, sent, sent, clock(), status, payload)
            with lock:
                outcomes.append(outcome)

    _run_workers(workers, worker, send_factory)
    outcomes.sort(key=lambda o: o.index)
    wall = max((o.done for o in outcomes), default=clock()) - start
    return outcomes, wall
