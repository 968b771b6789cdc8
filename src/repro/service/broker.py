"""The async request broker: admission, dedupe, micro-batching, timeouts.

Requests flow through four gates:

1. **Cache** — a fingerprint already answered (by this process or a
   previous one, via the disk tier) returns immediately.
2. **In-flight dedupe** — a fingerprint currently being computed attaches
   the caller to the existing future instead of queueing a second
   identical simulation.  Dedupe hits bypass admission control: they add
   no work, so shedding them would only waste an answer we are already
   paying for.
3. **Admission control** — new *unique* work is bounded by
   ``guards.max_pending``; beyond it the broker sheds the request with
   :class:`AdmissionError` (HTTP 503) rather than growing an unbounded
   queue.  Load shedding at admission is the service analogue of the
   fault layer's graceful-degradation guards: bound the damage, keep
   serving.
4. **Micro-batching** — admitted misses are collected for a short window
   (``guards.batch_window_s``, or until ``guards.max_batch``) and
   dispatched as *one* :func:`repro.experiments.runner.run_many`
   campaign, which amortises dispatch overhead and fans out over worker
   processes under the shared ``jobs`` convention (``0`` = auto).

Failure containment mirrors ``faults/guards``: the batch runs with
per-cell containment and only the cells that failed rerun, one by one
on the reference path, so one poisoned query cannot take down its batch
neighbours; deterministic refusals become cacheable error payloads;
per-request timeouts (:class:`RequestTimeout`, HTTP 504) abandon the
*wait*, never the computation — the late answer still lands in the
cache for the retry.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future, TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import ConfigurationError, ServiceError
from ..experiments.runner import resolve_jobs, run_many
from ..obs.instruments import percentile
from ..obs.registry import Registry, install
from .cache import ResultCache
from .fingerprint import fingerprint
from .query import Query
from .results import encode_result, execute_analytic, execute_query

#: Request counters, registered at 0 so a fresh registry lists them.
COUNTERS = (
    "requests", "cache_hits", "dedup_hits", "dispatched", "batches",
    "batched_cells", "shed", "timeouts", "fallbacks", "errors",
)

#: Latency paths; each keeps a ``{path}_latency`` window in the registry.
PATHS = ("hit", "miss", "analytic")


class AdmissionError(ServiceError):
    """The broker shed this request to protect itself (HTTP 503).

    Carries the degradation context clients need to retry *well*:
    ``queue_depth`` (unique simulations in flight when the request was
    shed) and ``retry_after_s`` (the broker's estimate of when capacity
    frees up, from recent miss latencies) — the HTTP layer surfaces them
    as the payload's ``queue_depth`` and the ``Retry-After`` header.
    """

    kind = "overload"

    def __init__(
        self,
        message: str,
        queue_depth: Optional[int] = None,
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.retry_after_s = retry_after_s


class RequestTimeout(ServiceError):
    """The per-request deadline expired while waiting (HTTP 504)."""

    kind = "timeout"


class BrokerClosed(ServiceError):
    """The broker was shut down before this request completed."""

    kind = "internal"


@dataclass(frozen=True)
class ServiceGuards:
    """Admission-control and degradation knobs, in the GuardConfig idiom.

    Attributes
    ----------
    max_pending:
        Upper bound on unique in-flight simulation requests; further
        unique work is shed with :class:`AdmissionError`.
    request_timeout_s:
        Default wait deadline enforced by :meth:`Broker.query`.
    batch_window_s:
        How long the dispatcher holds the first miss of a batch while
        more arrive.  Zero dispatches every miss immediately.
    max_batch:
        Hard cap on cells per dispatched campaign.
    """

    max_pending: int = 256
    request_timeout_s: float = 60.0
    batch_window_s: float = 0.005
    max_batch: int = 32

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.request_timeout_s <= 0:
            raise ConfigurationError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )
        if self.batch_window_s < 0:
            raise ConfigurationError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {self.max_batch}")


class Submission(NamedTuple):
    """What :meth:`Broker.submit` hands back for one admitted request."""

    future: "Future[dict]"
    path: str  #: "hit" | "analytic" | "dedup" | "miss"
    fingerprint: str


class Broker:
    """Admit, dedupe, batch, and answer queries over one result cache."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        guards: Optional[ServiceGuards] = None,
        jobs: Optional[int] = 0,
        obs: Optional[Registry] = None,
    ):
        self.cache = cache if cache is not None else ResultCache()
        self.guards = guards if guards is not None else ServiceGuards()
        self.jobs = resolve_jobs(jobs)
        #: Every count, latency window and stage span this broker keeps.
        self.obs = obs if obs is not None else Registry()
        for name in COUNTERS:
            self.obs.count(name, 0)
        for path in PATHS:
            self.obs.record(f"{path}_latency")
        self._queue: "queue.Queue[Tuple[str, Query]]" = queue.Queue()
        self._inflight: Dict[str, "Future[dict]"] = {}
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._dispatcher = threading.Thread(
            target=self._drain, name="lpfps-broker", daemon=True
        )
        self._dispatcher.start()

    # -- client surface ------------------------------------------------------
    def submit(self, query: Query) -> Submission:
        """Admit one query; returns a future resolving to its payload."""
        if self._closed.is_set():
            raise BrokerClosed("broker is closed")
        obs = self.obs
        obs.count("requests")
        key = fingerprint(query)
        with obs.span("broker.cache_lookup"):
            cached = self.cache.get(key)
        if cached is not None:
            obs.count("cache_hits")
            done: "Future[dict]" = Future()
            done.set_result(cached)
            return Submission(done, "hit", key)
        if query.kind != "energy":
            # Analytic kinds cost microseconds: answer on the caller's
            # thread, but still cache so repeats take the fast path.
            payload = execute_analytic(query)
            self.cache.put(key, payload)
            future: "Future[dict]" = Future()
            future.set_result(payload)
            return Submission(future, "analytic", key)
        with obs.span("broker.dedupe"), self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                obs.count("dedup_hits")
                return Submission(existing, "dedup", key)
            if len(self._inflight) >= self.guards.max_pending:
                obs.count("shed")
                depth = len(self._inflight)
                raise AdmissionError(
                    f"{depth} requests in flight "
                    f"(max_pending={self.guards.max_pending}); retry later",
                    queue_depth=depth,
                    retry_after_s=self.retry_after_s(depth),
                )
            future = Future()
            self._inflight[key] = future
        obs.count("dispatched")
        self._queue.put((key, query))
        return Submission(future, "miss", key)

    def query(self, query: Query, timeout: Optional[float] = None) -> dict:
        """Submit and wait; raises :class:`RequestTimeout` on expiry.

        A timed-out computation is *not* cancelled — its answer still
        lands in the cache, so the client's retry is a cheap hit.
        """
        import time

        start = time.perf_counter()
        submission = self.submit(query)
        deadline = timeout if timeout is not None else self.guards.request_timeout_s
        try:
            payload = submission.future.result(timeout=deadline)
        except FutureTimeout:
            self.obs.count("timeouts")
            raise RequestTimeout(
                f"no answer within {deadline:g}s (query {submission.fingerprint[:12]}); "
                "the result will be cached when it completes — retry"
            ) from None
        # A dedupe joiner waited on a simulation, so its wait is a miss.
        path = submission.path if submission.path in ("hit", "analytic") else "miss"
        self.obs.record(f"{path}_latency", time.perf_counter() - start)
        return payload

    def pending(self) -> int:
        """Unique simulation requests currently in flight."""
        with self._lock:
            return len(self._inflight)

    def retry_after_s(self, depth: Optional[int] = None) -> float:
        """Estimate how long a shed client should wait before retrying.

        The queue drains roughly one miss-latency per ``jobs`` workers
        per pending request, so the estimate is ``p50(miss latency) *
        depth / jobs``, clamped to ``[1, 60]`` seconds.  With no miss
        samples yet the honest answer is the old floor of one second.
        """
        if depth is None:
            depth = self.pending()
        p50 = percentile(self.obs.window_samples("miss_latency"), 0.5)
        if p50 <= 0.0 or depth <= 0:
            return 1.0
        return min(60.0, max(1.0, p50 * depth / max(1, self.jobs)))

    def _effective_window(self) -> float:
        """The batch window adapted to the current backlog.

        Batching trades latency for dispatch efficiency — a good trade
        at moderate load, a bad one when the pending set approaches the
        admission limit and every extra millisecond of window is a
        millisecond closer to shedding.  Past half the admission budget
        the window shrinks to a quarter; past three quarters it drops to
        zero (dispatch immediately), so the broker degrades *gradually*
        under overload instead of only refusing work at the door.
        """
        window = self.guards.batch_window_s
        if window <= 0.0:
            return 0.0
        pending = self.pending()
        if pending < 2:
            # A lone request can never constitute overload — the window
            # exists precisely to wait for its peers.
            return window
        load = pending / self.guards.max_pending
        if load < 0.5:
            return window
        self.obs.count("broker.window_shrinks")
        return 0.0 if load >= 0.75 else window * 0.25

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the dispatcher and fail whatever never ran."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._dispatcher.join(timeout=timeout)
        leftovers: List["Future[dict]"] = []
        with self._lock:
            leftovers.extend(self._inflight.values())
            self._inflight.clear()
        for future in leftovers:
            if not future.done():
                future.set_exception(BrokerClosed("broker closed before dispatch"))

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatcher ----------------------------------------------------------
    def _drain(self) -> None:
        """Dispatcher loop: gather one micro-batch, run it, repeat."""
        import time

        # The dispatcher thread's ambient registry: run_many's campaign
        # gauges land next to the broker's own stage spans.
        install(self.obs if self.obs.enabled else None)
        obs = self.obs
        while not self._closed.is_set():
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            batch = [first]
            with obs.span("broker.batch_window"):
                cutoff = time.monotonic() + self._effective_window()
                while len(batch) < self.guards.max_batch:
                    remaining = cutoff - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(self._queue.get(timeout=remaining))
                    except queue.Empty:
                        break
            self._run_batch(batch)

    def _run_batch(self, batch: List[Tuple[str, Query]]) -> None:
        """Run one micro-batch as a single campaign; contain failures."""
        obs = self.obs
        obs.count("batches")
        obs.count("batched_cells", len(batch))
        obs.observe(
            "broker.batch_size",
            float(len(batch)),
            edges=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
            units="",
        )
        payloads: Dict[str, dict] = {}
        failures: Dict[str, BaseException] = {}
        rerun: List[Tuple[str, Query]] = []
        try:
            with obs.span("broker.dispatch"):
                results = run_many(
                    [query.to_runspec() for _, query in batch],
                    jobs=self.jobs,
                    failures="contain",
                )
            with obs.span("broker.serialize"):
                for (key, query), result in zip(batch, results):
                    if result.failed:
                        rerun.append((key, query))
                    else:
                        payloads[key] = encode_result(query, result)
        except Exception:  # noqa: BLE001 - contained below
            rerun = [(key, query) for key, query in batch if key not in payloads]
        if rerun:
            # One bad cell must not fail its batch neighbours: only the
            # failed cells rerun, on the reference path, which turns a
            # deterministic refusal into its cacheable error payload.
            obs.count("fallbacks", len(rerun))
            with obs.span("broker.dispatch"):
                for key, query in rerun:
                    try:
                        payloads[key] = execute_query(query)
                    except BaseException as exc:  # noqa: BLE001
                        failures[key] = exc
        self._complete(payloads, failures)

    def _complete(
        self, payloads: Dict[str, dict], failures: Dict[str, BaseException]
    ) -> None:
        """Cache answers, then release waiters."""
        for key, payload in payloads.items():
            self.cache.put(key, payload)
            if not payload.get("ok", True):
                self.obs.count("errors")
        futures: Dict[str, "Future[dict]"] = {}
        with self._lock:
            for key in list(payloads) + list(failures):
                future = self._inflight.pop(key, None)
                if future is not None:
                    futures[key] = future
        for key, future in futures.items():
            if key in payloads:
                future.set_result(payloads[key])
            else:
                self.obs.count("errors")
                future.set_exception(failures[key])
