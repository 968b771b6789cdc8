"""Client-side fleet failover: round-robin, ejection, safe re-issue.

:class:`FleetClient` extends the :class:`~repro.service.retry.
RetryingClient` idea from *one endpoint, retried* to *N replica
endpoints, failed over*:

* **Round-robin** — each request starts one slot further around the
  ring, spreading load evenly across healthy replicas.
* **Ejection via circuit breakers** — every endpoint carries its own
  :class:`~repro.service.retry.CircuitBreaker`; consecutive transport
  failures open it and the ring walk skips the endpoint until its
  half-open probe succeeds.  A restarting replica rejoins automatically.
* **Transparent re-issue on replica death** — a transport failure
  (connection refused, reset mid-response) moves straight to the next
  replica *without* backoff: re-issuing is provably safe because every
  query is content-addressed (:mod:`repro.service.fingerprint`) and
  idempotent — the answer is a pure function of the request, cache hits
  are bit-identical across replicas, and a half-computed answer on the
  dead replica at worst becomes a warm cache entry nobody reads.
* **Flow control is still an answer** — 503/504 mean the fleet is
  protecting itself; those back off (decorrelated jitter, the
  :func:`~repro.service.retry.backoff_schedule` shared with the
  single-endpoint client) before the next ring pass, rather than
  hammering an overloaded fleet.

Clock-free and deterministic under test: the RNG behind the jitter, the
sleep, and the per-endpoint transports are all injectable.

Counters (``fleet.failovers``, ``fleet.shed_seen``, ``fleet.attempts``,
``fleet.exhausted``) land in the thread-locally installed obs registry
(or an explicitly passed one), next to the supervisor's ``fleet.*``
server-side counters.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ServiceError
from ..obs.registry import Registry, current
from .client import SendFn, ServiceClient, follow_campaign, submitted_campaign
from .retry import (
    TRANSPORT_ERRORS,
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    backoff_schedule,
)

#: Transport-failure classes for HTTP fleet traffic: the socket-level
#: errors the single-endpoint client retries, plus protocol-level
#: carnage (truncated status line, dead keep-alive connection) a replica
#: SIGKILLed mid-response produces.
FLEET_TRANSPORT_ERRORS = TRANSPORT_ERRORS + (http.client.HTTPException,)


class _Target:
    """One replica endpoint: its transport and its breaker."""

    def __init__(self, url: str, send: SendFn, breaker: CircuitBreaker):
        self.url = url
        self.send = send
        self.breaker = breaker


class FleetClient:
    """Failover client over a fleet of replica endpoints.

    Callable with the ``SendFn`` shape — drop it straight into
    ``run_closed_loop`` / ``run_open_loop`` like any transport.

    Parameters
    ----------
    endpoints:
        Replica base URLs (the supervisor's :meth:`~repro.service.
        supervisor.FleetSupervisor.urls`).
    policy:
        Backoff/retry knobs; ``max_attempts`` counts *ring passes*, not
        individual endpoint tries, so one dead replica never consumes
        the whole budget.
    rng:
        Injectable :class:`random.Random` driving the backoff jitter —
        pass a seeded instance for deterministic tests.
    transport_factory:
        ``url -> SendFn``; defaults to :class:`~repro.service.client.
        ServiceClient` over HTTP.  Injectable so unit tests can run an
        in-memory fleet.
    breaker_factory:
        Zero-arg factory for per-endpoint breakers.  The default is
        tuned for failover (3 failures, 2 s reset): a killed replica is
        ejected after three refused connections and re-probed about as
        fast as the supervisor can restart it.
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        policy: Optional[RetryPolicy] = None,
        timeout_s: float = 120.0,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
        transport_factory: Optional[Callable[[str], SendFn]] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        obs: Optional[Registry] = None,
        scenario_client_factory: Optional[Callable[[str], Any]] = None,
    ):
        if not endpoints:
            raise ConfigurationError("endpoints must name at least one replica")
        if transport_factory is None:
            transport_factory = (
                lambda url: ServiceClient(url, timeout_s=timeout_s).query
            )
        if scenario_client_factory is None:
            scenario_client_factory = (
                lambda url: ServiceClient(url, timeout_s=timeout_s)
            )
        self._scenario_client_factory = scenario_client_factory
        self._scenario_clients: Dict[str, Any] = {}
        if breaker_factory is None:
            breaker_factory = lambda: CircuitBreaker(
                failure_threshold=3, reset_timeout_s=2.0
            )
        self.policy = policy if policy is not None else RetryPolicy()
        self._targets = [
            _Target(url, transport_factory(url), breaker_factory())
            for url in endpoints
        ]
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._obs = obs
        self._lock = threading.Lock()
        self._cursor = 0
        self.attempts = 0
        self.failovers = 0
        self.shed_seen = 0
        self.retries = 0
        self.slept_s = 0.0

    def _registry(self) -> Registry:
        return self._obs if self._obs is not None else current()

    def _ring(self) -> List[_Target]:
        """The targets, rotated so each request starts one slot on."""
        with self._lock:
            start = self._cursor
            self._cursor = (self._cursor + 1) % len(self._targets)
        return self._targets[start:] + self._targets[:start]

    def endpoints(self) -> List[str]:
        return [target.url for target in self._targets]

    def breaker_states(self) -> Dict[str, str]:
        """Endpoint → breaker state, for dashboards and tests."""
        return {t.url: t.breaker.state for t in self._targets}

    def __call__(self, request: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Send with failover; returns the final ``(status, payload)``.

        One *pass* walks the ring once, skipping endpoints whose breaker
        is open; transport failures within a pass fail over immediately.
        Between passes the client sleeps a decorrelated-jitter delay.
        After ``policy.max_attempts`` passes the last flow-control
        answer is returned; if every pass ended in transport failures,
        the last one is raised (:class:`CircuitOpenError` when no
        breaker would even admit a try).
        """
        obs = self._registry()
        policy = self.policy
        delays = backoff_schedule(policy, self._rng)
        last_response: Optional[Tuple[int, Dict[str, Any]]] = None
        last_error: Optional[BaseException] = None
        for ring_pass in range(policy.max_attempts):
            tried = 0
            for target in self._ring():
                if not target.breaker.allow():
                    continue
                tried += 1
                self.attempts += 1
                obs.count("fleet.attempts")
                try:
                    status, payload = target.send(request)
                except FLEET_TRANSPORT_ERRORS as exc:
                    target.breaker.record_failure()
                    self.failovers += 1
                    obs.count("fleet.failovers")
                    last_error, last_response = exc, None
                    continue  # immediate failover: re-issue is idempotent
                target.breaker.record_success()
                if status not in policy.retry_on:
                    return status, payload
                if status == 503:
                    self.shed_seen += 1
                    obs.count("fleet.shed_seen")
                last_response, last_error = (status, payload), None
                break  # flow control: back off before the next pass
            if tried == 0 and last_error is None and last_response is None:
                last_error = CircuitOpenError(
                    "every replica breaker is open; no endpoint to try"
                )
            if ring_pass + 1 >= policy.max_attempts:
                break
            delay = next(delays)
            self.retries += 1
            self.slept_s += delay
            obs.count("fleet.retries")
            obs.observe("fleet.backoff_s", delay, units="s")
            self._sleep(delay)
        if last_response is not None:
            return last_response
        obs.count("fleet.exhausted")
        assert last_error is not None
        raise last_error

    # SendFn / ServiceClient name parity
    query = __call__

    # -- streamed campaigns ---------------------------------------------------
    def _scenario_client(self, url: str) -> Any:
        client = self._scenario_clients.get(url)
        if client is None:
            client = self._scenario_client_factory(url)
            self._scenario_clients[url] = client
        return client

    def submit_scenario(
        self, request: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """POST a scenario to the first healthy replica (ring walk).

        Transport failures fail over to the next replica — safe because
        submission is idempotent whenever the fleet shares a checkpoint
        dir (the campaign id is content-addressed from the scenario
        fingerprint).  Raises the last transport error if every replica
        refused.
        """
        _, status, payload = self._submit_scenario(request)
        return status, payload

    def _submit_scenario(
        self, request: Dict[str, Any]
    ) -> Tuple[_Target, int, Dict[str, Any]]:
        """:meth:`submit_scenario`, plus the replica that answered."""
        obs = self._registry()
        last_error: Optional[BaseException] = None
        for target in self._ring():
            if not target.breaker.allow():
                continue
            self.attempts += 1
            obs.count("fleet.attempts")
            try:
                status, payload = self._scenario_client(
                    target.url
                ).submit_scenario(request)
            except FLEET_TRANSPORT_ERRORS as exc:
                target.breaker.record_failure()
                self.failovers += 1
                obs.count("fleet.failovers")
                last_error = exc
                continue
            target.breaker.record_success()
            return target, status, payload
        if last_error is not None:
            raise last_error
        raise CircuitOpenError(
            "every replica breaker is open; no endpoint to try"
        )

    def resume_scenario(
        self,
        request: Dict[str, Any],
        after: int = 0,
        max_reconnects: int = 16,
        reconnect_delay_s: float = 0.5,
    ) -> Iterator[Dict[str, Any]]:
        """Stream a scenario campaign to completion across replica deaths.

        The fleet edition of :meth:`ServiceClient.resume_scenario`, on
        the same reconnect loop (:func:`~repro.service.client.
        follow_campaign`): each (re)attachment walks the ring for a
        healthy replica, re-submits the scenario there (idempotent under
        a shared checkpoint dir — any replica can resume any campaign),
        and follows the stream from the last yielded event.  A replica
        dying mid-stream costs one reconnect and one
        ``fleet.scenario_failovers`` count; the merged sequence stays
        gapless and duplicate-free.  Raises
        :class:`~repro.errors.ServiceError` on a non-200 submission or
        an exhausted reconnect budget.
        """
        streamed_from: Optional[str] = None

        def attach(last_seen: int) -> Iterator[Dict[str, Any]]:
            nonlocal streamed_from
            streamed_from = None
            try:
                target, status, payload = self._submit_scenario(request)
            except CircuitOpenError:
                return  # no replica to try: spend a reconnect and wait
            campaign_id = submitted_campaign(status, payload)
            streamed_from = target.url
            try:
                yield from self._scenario_client(target.url).stream(
                    campaign_id, after=last_seen
                )
            except FLEET_TRANSPORT_ERRORS:
                target.breaker.record_failure()
                self._registry().count("fleet.scenario_failovers")

        def pause(delay: float) -> None:
            self.slept_s += delay
            self._sleep(delay)

        def lost() -> str:
            return (
                f"campaign stream lost after {max_reconnects} "
                f"reconnects (last replica: {streamed_from})"
            )

        return follow_campaign(
            attach, after, max_reconnects, reconnect_delay_s, pause, lost
        )
