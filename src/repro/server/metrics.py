"""Serving metrics: request counts, latency percentiles, cache hit rates.

Pure stdlib (the server must not pull numpy into its hot path): latencies
are kept in bounded per-endpoint reservoirs (the most recent ``maxlen``
observations) and percentiles are computed with linear interpolation on a
sorted copy at snapshot time.  All mutation is behind one lock —
``observe`` is a few appends and increments, far cheaper than any request
it measures.

An endpoint that has observed no latencies yet reports ``None`` (JSON
``null``) for its mean/percentiles — never ``NaN``, which ``json.dumps``
would serialise as the bare token ``NaN`` that strict JSON parsers
reject.

Every observation is mirrored into a :class:`~repro.obs.metrics.
MetricsRegistry` (labelled counters + bounded latency histograms), which
is what the Prometheus rendering of ``/metrics`` scrapes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Mapping

from ..obs.metrics import MetricsRegistry
from ..perf.spanstats import percentile

__all__ = ["ServerMetrics"]


class _EndpointStats:
    """Counters and a bounded latency reservoir for one endpoint."""

    __slots__ = ("count", "errors", "latencies")

    def __init__(self, maxlen: int) -> None:
        self.count = 0
        self.errors = 0
        self.latencies: deque[float] = deque(maxlen=maxlen)

    def snapshot(self) -> dict[str, Any]:
        samples = list(self.latencies)
        # None → JSON null; float("nan") would serialise as the bare token
        # NaN, which strict JSON parsers reject
        latency = {
            "mean": sum(samples) / len(samples) if samples else None,
            "p50": percentile(samples, 50.0),
            "p95": percentile(samples, 95.0),
            "p99": percentile(samples, 99.0),
        }
        return {
            "count": self.count,
            "errors": self.errors,
            "latency_seconds": latency,
        }


class ServerMetrics:
    """Thread-safe request/latency/session accounting for ``/metrics``."""

    def __init__(
        self,
        reservoir_size: int = 1024,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if reservoir_size < 1:
            raise ValueError(
                f"reservoir_size must be >= 1, got {reservoir_size}"
            )
        self._reservoir_size = reservoir_size
        self._lock = threading.Lock()
        self._started_wall = time.time()
        self._started_monotonic = time.monotonic()
        self._total = 0
        self._by_endpoint: dict[str, _EndpointStats] = {}
        self._by_status: dict[int, int] = {}
        self._events: dict[str, int] = {}
        #: The generic registry behind ``/metrics?format=prometheus``.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._req_counter = self.registry.counter(
            "subdex_requests_total",
            "Completed HTTP requests by route and status.",
            labelnames=("endpoint", "status"),
        )
        self._latency_histogram = self.registry.histogram(
            "subdex_request_seconds",
            "Request wall-clock latency by route.",
            labelnames=("endpoint",),
        )
        self._event_counter = self.registry.counter(
            "subdex_events_total",
            "Resilience and lifecycle events (shed, degraded, deadline, ...).",
            labelnames=("event",),
        )

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one completed request.

        ``endpoint`` is the route label (``"POST /sessions"``), not the
        raw path, so per-session URLs aggregate into one series.
        """
        with self._lock:
            self._total += 1
            stats = self._by_endpoint.get(endpoint)
            if stats is None:
                stats = self._by_endpoint[endpoint] = _EndpointStats(
                    self._reservoir_size
                )
            stats.count += 1
            if status >= 400:
                stats.errors += 1
            stats.latencies.append(seconds)
            self._by_status[status] = self._by_status.get(status, 0) + 1
        self._req_counter.inc(endpoint=endpoint, status=str(status))
        self._latency_histogram.observe(seconds, endpoint=endpoint)

    @property
    def total_requests(self) -> int:
        with self._lock:
            return self._total

    def record_event(self, name: str, count: int = 1) -> None:
        """Count one resilience event (shed, degraded, deadline, ...)."""
        with self._lock:
            self._events[name] = self._events.get(name, 0) + count
        self._event_counter.inc(count, event=name)

    def event_count(self, name: str) -> int:
        with self._lock:
            return self._events.get(name, 0)

    def snapshot(
        self,
        sessions: Mapping[str, int] | None = None,
        caches: Mapping[str, Any] | None = None,
        resilience: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """The full ``/metrics`` payload.

        ``sessions`` (registry counters), ``caches`` (per-dataset
        group/result cache stats) and ``resilience`` (gate, breaker and
        checkpoint state) are supplied by the application, which owns
        those objects.
        """
        with self._lock:
            payload: dict[str, Any] = {
                "started_at": self._started_wall,
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "requests": {
                    "total": self._total,
                    "by_endpoint": {
                        name: stats.snapshot()
                        for name, stats in sorted(self._by_endpoint.items())
                    },
                    "by_status": {
                        str(status): count
                        for status, count in sorted(self._by_status.items())
                    },
                },
                "events": dict(sorted(self._events.items())),
            }
        if sessions is not None:
            payload["sessions"] = dict(sessions)
        if caches is not None:
            payload["caches"] = dict(caches)
        if resilience is not None:
            payload["resilience"] = dict(resilience)
        return payload
