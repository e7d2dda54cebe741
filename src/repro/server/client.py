"""A small blocking client for the SubDEx service.

:class:`SubDExClient` speaks the JSON wire protocol over a persistent
``http.client`` connection (reconnecting transparently when the server
closes it).  Server-side failures surface as :class:`ServerError` carrying
the HTTP status and the machine-readable error code from the payload, so
callers can distinguish a bad request (400) from an evicted session (410)
or a full server (429).

Idempotent GETs are retried with capped exponential backoff and **full
jitter** (``sleep ~ U(0, min(cap, base * 2**attempt))``) on transient
failures — connection errors, 429/503/504 and any error the server marks
``retryable`` — honouring ``Retry-After`` when the server sends one.
Mutating requests (POST/DELETE) are never replayed: applying a
recommendation twice is two steps.  When the retry budget runs out the
client raises the typed :class:`ServerUnavailable`.  The policy's RNG and
sleep are injectable so tests are deterministic and instant.

.. code-block:: python

    with SubDExClient("http://127.0.0.1:8642") as client:
        session = client.create_session()
        for rm in session.maps()["maps"]:
            print(rm["description"])
        session.apply_recommendation(1)
        log = session.history()
        session.close()
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping
from urllib.parse import urlencode, urlsplit

from ..exceptions import ReproError
from ..perf.spanstats import tree_costs

__all__ = [
    "ClientSession",
    "RetryPolicy",
    "ServerError",
    "ServerUnavailable",
    "SubDExClient",
]

#: Statuses worth retrying on an idempotent request: overload shedding,
#: open circuit breakers (503), deadline overruns (504), session-cap
#: rejections (429).
_RETRYABLE_STATUSES = frozenset({429, 503, 504})


class ServerError(ReproError):
    """A non-2xx response from the service.

    ``trace_id`` is the server's ``X-Trace-Id`` for the failed request,
    when one was sent — quote it when reporting a problem, it pins the
    exact trace in the server's ``/debug/traces`` ring and trace file.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retryable: bool = False,
        retry_after: float | None = None,
        trace_id: str | None = None,
    ) -> None:
        suffix = f" [trace {trace_id}]" if trace_id else ""
        super().__init__(f"[{status} {code}] {message}{suffix}")
        self.status = status
        self.code = code
        self.message = message
        #: The server's own judgement (the ``retryable`` payload field).
        self.retryable = retryable or status in _RETRYABLE_STATUSES
        self.retry_after = retry_after
        self.trace_id = trace_id


class ServerUnavailable(ServerError):
    """The retry budget ran out without a successful response.

    ``last_error`` is the final failure — a :class:`ServerError` for an
    HTTP-level rejection, an :class:`OSError` for a dead connection.
    """

    def __init__(self, attempts: int, last_error: BaseException) -> None:
        status = last_error.status if isinstance(last_error, ServerError) else 0
        code = last_error.code if isinstance(last_error, ServerError) else "unreachable"
        trace_id = (
            last_error.trace_id if isinstance(last_error, ServerError) else None
        )
        super().__init__(
            status,
            code,
            f"server unavailable after {attempts} attempts "
            f"(last error: {last_error})",
            trace_id=trace_id,
        )
        self.attempts = attempts
        self.last_error = last_error


@dataclass
class RetryPolicy:
    """Capped exponential backoff with full jitter for idempotent GETs.

    Deterministic when given a seeded ``rng`` and a fake ``sleep``;
    ``max_attempts=1`` disables retries entirely.
    """

    max_attempts: int = 4
    base_seconds: float = 0.05
    cap_seconds: float = 2.0
    rng: random.Random = field(default_factory=random.Random)
    sleep: Callable[[float], None] = time.sleep

    def backoff(self, attempt: int, retry_after: float | None = None) -> float:
        """Seconds to wait after failed attempt ``attempt`` (0-based).

        A server-provided ``Retry-After`` is a floor, not a suggestion:
        retrying sooner is guaranteed to fail again.
        """
        jittered = self.rng.uniform(
            0.0, min(self.cap_seconds, self.base_seconds * (2.0 ** attempt))
        )
        if retry_after is not None:
            return max(retry_after, jittered)
        return jittered


class SubDExClient:
    """Blocking HTTP client; one instance per thread (not thread-safe)."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        trace_id: str | None = None,
    ) -> None:
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", ""):
            raise ValueError(f"only http:// URLs are supported, got {base_url!r}")
        netloc = parts.netloc or parts.path  # tolerate "host:port" without scheme
        self._host, _, port = netloc.partition(":")
        self._port = int(port) if port else 80
        self._timeout = timeout
        self._retry = retry or RetryPolicy()
        self._connection: http.client.HTTPConnection | None = None
        #: Sent as ``X-Trace-Id`` on every request, so the server threads
        #: this client's requests onto one caller-chosen trace id family.
        self.trace_id = trace_id
        #: The server-assigned trace id of the most recent response.
        self.last_trace_id: str | None = None
        #: Server-side handling time of the most recent response (the
        #: ``X-Server-Ms`` header) — subtracting it from the client-side
        #: wall clock isolates network + queueing from actual work.
        self.last_server_ms: float | None = None

    # -- plumbing -----------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "SubDExClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _round_trip(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: Mapping[str, str],
    ) -> dict[str, Any]:
        """One request/response cycle; raises :class:`ServerError` on non-2xx."""
        for attempt in (1, 2):
            connection = self._connect()
            try:
                connection.request(method, path, body=body, headers=dict(headers))
                response = connection.getresponse()
                raw = response.read()
                break
            except (
                http.client.HTTPException,
                ConnectionError,
                BrokenPipeError,
            ):
                # stale keep-alive connection: reconnect once
                self.close()
                if attempt == 2:
                    raise
        trace_id = response.getheader("X-Trace-Id")
        if trace_id is not None:
            self.last_trace_id = trace_id
        self.last_server_ms = None
        raw_server_ms = response.getheader("X-Server-Ms")
        if raw_server_ms is not None:
            try:
                self.last_server_ms = float(raw_server_ms)
            except ValueError:
                pass
        content_type = response.getheader("Content-Type") or ""
        if response.status < 400 and "application/json" not in content_type:
            # text endpoints (collapsed profiles, Prometheus expositions)
            data: dict[str, Any] = {"text": raw.decode("utf-8", "replace")}
        else:
            try:
                data = json.loads(raw) if raw else {}
            except json.JSONDecodeError as error:
                raise ServerError(
                    response.status,
                    "invalid_response",
                    f"non-JSON body: {error}",
                    trace_id=trace_id,
                ) from None
        if response.status >= 400:
            error_info = data.get("error", {}) if isinstance(data, dict) else {}
            retry_after = error_info.get("retry_after")
            if retry_after is None:
                header = response.getheader("Retry-After")
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
            raise ServerError(
                response.status,
                error_info.get("code", "unknown"),
                error_info.get("message", raw.decode("utf-8", "replace")),
                retryable=bool(error_info.get("retryable", False)),
                retry_after=retry_after,
                trace_id=trace_id,
            )
        return data

    def request(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        query: Mapping[str, Any] | None = None,
        deadline_ms: int | None = None,
    ) -> dict[str, Any]:
        """One logical request; idempotent GETs retry per the policy."""
        if query:
            path = f"{path}?{urlencode(query)}"
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers: dict[str, str] = {}
        if body:
            headers["Content-Type"] = "application/json"
        if deadline_ms is not None:
            headers["X-Deadline-Ms"] = str(deadline_ms)
        if self.trace_id is not None:
            headers["X-Trace-Id"] = self.trace_id
        if method != "GET" or self._retry.max_attempts <= 1:
            return self._round_trip(method, path, body, headers)

        attempts = self._retry.max_attempts
        last_error: BaseException | None = None
        for attempt in range(attempts):
            try:
                return self._round_trip(method, path, body, headers)
            except ServerError as error:
                if not error.retryable:
                    raise
                last_error = error
                retry_after = error.retry_after
            except (OSError, http.client.HTTPException) as error:
                # connection refused / reset / aborted mid-response: the
                # server (or its worker) may be restarting.  OSError covers
                # ConnectionResetError and RemoteDisconnected (a subclass);
                # HTTPException catches the non-OSError failure shapes a
                # dying peer produces — BadStatusLine on a garbage status
                # line, IncompleteRead on a truncated body — which
                # _round_trip re-raises after its single reconnect.
                self.close()
                last_error = error
                retry_after = None
            if attempt + 1 < attempts:
                self._retry.sleep(self._retry.backoff(attempt, retry_after))
        raise ServerUnavailable(attempts, last_error)  # type: ignore[arg-type]

    # -- service endpoints ---------------------------------------------------
    def health(self) -> dict[str, Any]:
        return self.request("GET", "/health")

    def metrics(self) -> dict[str, Any]:
        return self.request("GET", "/metrics")

    def slo(self) -> dict[str, Any]:
        """The SLO scorecard (attainment, budgets, burn rates per class)."""
        return self.request("GET", "/slo")

    def sessions(self) -> list[dict[str, Any]]:
        return self.request("GET", "/sessions")["sessions"]

    # -- cluster -------------------------------------------------------------
    def workers(self) -> dict[str, Any]:
        """Worker states of a cluster server (``enabled: false`` otherwise)."""
        return self.request("GET", "/cluster/workers")

    def cluster_maps(
        self,
        dataset: str | None = None,
        criteria: Mapping[str, Any] | None = None,
        k: int | None = None,
    ) -> dict[str, Any]:
        """One stateless exact scan of a group (``POST /cluster/maps``)."""
        payload: dict[str, Any] = {}
        if dataset is not None:
            payload["dataset"] = dataset
        if criteria is not None:
            payload["criteria"] = dict(criteria)
        if k is not None:
            payload["k"] = k
        return self.request("POST", "/cluster/maps", payload)

    # -- performance introspection -------------------------------------------
    def explain(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        query: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Re-issue a request with ``?debug=1``; return its cost breakdown.

        The returned dict carries the raw span ``tree`` (the server's
        ``debug`` payload), a flattened per-operation ``costs`` table
        (inclusive/exclusive milliseconds, heaviest first), the
        ``server_ms`` handling time and the ``trace_id`` to quote when
        digging further in ``/debug/traces``.
        """
        merged = dict(query or {})
        merged["debug"] = 1
        data = self.request(method, path, payload, query=merged)
        debug = data.get("debug") or {}
        tree = debug.get("spans") or {}
        return {
            "trace_id": debug.get("trace_id") or self.last_trace_id,
            "server_ms": self.last_server_ms,
            "tree": tree,
            "costs": tree_costs(tree),
        }

    def profile(
        self,
        seconds: float = 1.0,
        fmt: str = "collapsed",
        interval_ms: float | None = None,
    ) -> str | dict[str, Any]:
        """Sample the server for ``seconds``; collapsed text or JSON dict."""
        query: dict[str, Any] = {"seconds": seconds, "format": fmt}
        if interval_ms is not None:
            query["interval_ms"] = interval_ms
        data = self.request("GET", "/debug/profile", query=query)
        return data["text"] if fmt == "collapsed" else data

    def spans_summary(self, limit: int | None = None) -> dict[str, Any]:
        """The server's aggregate per-operation span cost table."""
        query = {"limit": limit} if limit is not None else None
        return self.request("GET", "/debug/spans/summary", query=query)

    def traces(
        self,
        op: str | None = None,
        dataset: str | None = None,
        min_ms: float | None = None,
        status: str | None = None,
        limit: int | None = None,
    ) -> dict[str, Any]:
        """Search the server's collected (fleet-stitched) traces.

        Filters mirror ``GET /debug/traces``: ``op`` substring-matches
        the route label, ``dataset`` matches any span's dataset
        attribute, ``status`` is ``"ok"``/``"error"`` or an HTTP status.
        """
        query = {
            name: value
            for name, value in (
                ("op", op),
                ("dataset", dataset),
                ("min_ms", min_ms),
                ("status", status),
                ("limit", limit),
            )
            if value is not None
        }
        return self.request("GET", "/debug/traces", query=query or None)

    def trace(self, trace_id: str) -> dict[str, Any]:
        """One fleet-assembled trace (front + worker spans) by id.

        The id to pass is the ``[trace <id>]`` from a
        :class:`ServerError` message or the ``X-Trace-Id`` response
        header — in cluster deployments the returned tree includes the
        worker-side spans stitched under the front's ``worker.rpc``.
        """
        return self.request("GET", f"/debug/traces/{trace_id}")

    def create_session(
        self,
        dataset: str | None = None,
        criteria: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> "ClientSession":
        payload: dict[str, Any] = {}
        if dataset is not None:
            payload["dataset"] = dataset
        if criteria is not None:
            payload["criteria"] = dict(criteria)
        data = self.request("POST", "/sessions", payload)
        return ClientSession(self, data)


class ClientSession:
    """A handle on one server-side exploration session."""

    def __init__(self, client: SubDExClient, created: dict[str, Any]) -> None:
        self._client = client
        self.id = created["session_id"]
        self.dataset = created["dataset"]
        #: The latest step payload (updated by every ``apply_*`` call).
        self.step = created["step"]

    def _apply(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        data = self._client.request(
            "POST", f"/sessions/{self.id}/apply", payload
        )
        self.step = data["step"]
        return self.step

    # -- the paper's UI actions ---------------------------------------------
    def summary(self) -> dict[str, Any]:
        return self._client.request("GET", f"/sessions/{self.id}")

    def maps(self) -> dict[str, Any]:
        """The current step's rating maps."""
        return self._client.request("GET", f"/sessions/{self.id}/maps")

    def recommendations(self, o: int | None = None) -> list[dict[str, Any]]:
        """The current step's numbered top-o recommendations."""
        query = {"o": o} if o is not None else None
        data = self._client.request(
            "GET", f"/sessions/{self.id}/recommendations", query=query
        )
        return data["recommendations"]

    def recommend(
        self,
        o: int | None = None,
        budget_ms: int | None = None,
        deadline_ms: int | None = None,
    ) -> dict[str, Any]:
        """Recommendations with the full anytime envelope.

        ``budget_ms`` is the *soft* limit: the server answers its
        best-so-far inside the budget and the payload's ``quality``
        describes how complete the answer is; a partial answer carries a
        ``refinement`` token to poll.  ``deadline_ms`` stays the hard
        limit (504 on overrun) — when both are given, the smaller wins.
        """
        query: dict[str, Any] = {}
        if o is not None:
            query["o"] = o
        if budget_ms is not None:
            query["budget_ms"] = budget_ms
        return self._client.request(
            "GET",
            f"/sessions/{self.id}/recommendations",
            query=query or None,
            deadline_ms=deadline_ms,
        )

    def refine(self, token: str) -> dict[str, Any]:
        """Poll one refinement token (``refinement_lost`` → 410)."""
        return self._client.request(
            "GET", f"/sessions/{self.id}/recommendations/refine/{token}"
        )

    def wait_for_refinement(
        self,
        token: str,
        timeout: float = 30.0,
        interval: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> dict[str, Any]:
        """Poll ``token`` until its job finishes (done *or* failed).

        Raises :class:`TimeoutError` when the job is still running at the
        deadline; a lost token surfaces immediately as the server's typed
        410 (:class:`ServerError` with code ``refinement_lost``).
        """
        give_up = clock() + timeout
        while True:
            data = self.refine(token)
            if data.get("status") in ("done", "failed"):
                return data
            if clock() >= give_up:
                raise TimeoutError(
                    f"refinement {token!r} still {data.get('status')!r} "
                    f"after {timeout:.1f}s"
                )
            sleep(interval)

    def apply_recommendation(self, number: int) -> dict[str, Any]:
        """Apply recommendation ``number`` (1-based, as displayed)."""
        return self._apply({"recommendation": number})

    def apply_add(self, side: str, attribute: str, value: Any) -> dict[str, Any]:
        return self._apply(
            {"add": {"side": side, "attribute": attribute, "value": value}}
        )

    def apply_drop(self, side: str, attribute: str) -> dict[str, Any]:
        return self._apply({"drop": {"side": side, "attribute": attribute}})

    def apply_sql(self, side: str, where: str) -> dict[str, Any]:
        """Replace one side's selection with a SQL-dialect conjunction."""
        return self._apply({"sql": {"side": side, "where": where}})

    def apply_criteria(
        self, criteria: Mapping[str, Mapping[str, Any]]
    ) -> dict[str, Any]:
        return self._apply({"criteria": dict(criteria)})

    def history(self) -> dict[str, Any]:
        """The exploration log (same JSON schema as ``--log`` exports)."""
        return self._client.request("GET", f"/sessions/{self.id}/history")

    def close(self) -> dict[str, Any]:
        return self._client.request("DELETE", f"/sessions/{self.id}")
