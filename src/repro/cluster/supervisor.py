"""The worker pool: spawn, route, supervise, drain.

The :class:`WorkerPool` is the front's handle on the cluster.  It

* exports every dataset into shared memory once and spawns ``N`` workers
  that attach zero-copy views (:mod:`repro.cluster.partition`);
* routes session ops to their owning worker via the consistent-hash ring
  (:mod:`repro.cluster.hashing`) behind a per-worker circuit breaker —
  a dead worker fails fast with a retryable 503 + ``Retry-After``
  instead of hanging callers;
* sends each stateless ``maps.scan`` whole to one worker, round-robin
  over the workers that are up, and retries it once on the next worker
  if the first is unreachable — every worker holds the full database, so
  the answer is exact or a retryable 503, never partial;
* runs a heartbeat monitor that detects dead or wedged workers and
  restarts them; the replacement reoccupies the same ring slot and
  replays its own checkpoint store, so routed sessions survive a crash;
* on shutdown drains workers (final checkpoint flush inside the worker),
  joins the processes, and unlinks every shared-memory segment.

Observability crosses the pool: RPCs run inside ``worker.rpc`` spans on
the caller's ambient trace, worker span summaries are scraped for
``/debug/spans/summary``, and :meth:`metric_families` feeds
``worker``-labelled families into ``/metrics``.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..core.engine import SubDExConfig
from ..exceptions import ReproError
from ..model.database import SubjectiveDatabase
from ..obs.metrics import MetricFamily
from ..obs.tracing import current_trace_id, span
from ..resilience.breaker import BreakerOpenError, CircuitBreaker
from ..resilience.deadline import current_deadline
from . import ipc
from .hashing import HashRing
from .partition import share_database
from .shm import SegmentRegistry, purge_stale_segments
from .worker import WorkerSpec, worker_main

__all__ = ["ClusterConfig", "WorkerPool", "WorkerUnavailableError"]

_log = logging.getLogger("repro.cluster.supervisor")


class WorkerUnavailableError(ReproError):
    """A worker RPC failed at the transport layer (dead, wedged, restarting)."""

    def __init__(self, worker: int, reason: str, retry_after: float) -> None:
        super().__init__(f"worker {worker} unavailable: {reason}")
        self.worker = worker
        self.retry_after = retry_after


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the multi-process deployment (``serve --workers N``)."""

    workers: int = 2
    heartbeat_interval_seconds: float = 0.5
    heartbeat_timeout_seconds: float = 1.0
    #: consecutive failed heartbeats before a live-looking worker is
    #: declared wedged and restarted
    heartbeat_misses: int = 3
    rpc_timeout_seconds: float = 30.0
    start_timeout_seconds: float = 30.0
    restart_backoff_seconds: float = 0.1
    #: per-worker restart budget; beyond it the slot is marked failed and
    #: its sessions answer 503 until the operator intervenes
    max_restarts: int = 8
    breaker_failure_threshold: int = 3
    breaker_reset_seconds: float = 1.0
    retry_after_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class _WorkerHandle:
    index: int
    socket_path: str
    breaker: CircuitBreaker
    process: multiprocessing.process.BaseProcess | None = None
    state: str = "starting"  # starting | up | restarting | failed
    restarts: int = 0
    heartbeat_misses: int = 0
    rpcs_ok: int = 0
    rpcs_error: int = 0
    #: live-session count cached from the last successful heartbeat ping,
    #: so /metrics never blocks on per-worker IPC
    sessions: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class WorkerPool:
    """Owns the worker processes, their shared memory, and all routing."""

    def __init__(
        self,
        datasets: Mapping[str, tuple[SubjectiveDatabase, SubDExConfig]],
        config: ClusterConfig | None = None,
        *,
        max_sessions: int = 64,
        session_ttl_seconds: float = 1800.0,
        group_cache_capacity: int = 256,
        result_cache_capacity: int = 128,
        checkpoint_dir: str | None = None,
        checkpoint_interval_seconds: float = 30.0,
        tracing_enabled: bool = True,
        slo_config: Mapping[str, Any] | None = None,
        trace_max_spans: int = 512,
    ) -> None:
        if not datasets:
            raise ValueError("WorkerPool needs at least one dataset")
        self.config = config or ClusterConfig()
        self._datasets = dict(datasets)
        self.default_dataset = next(iter(self._datasets))
        self._max_sessions = max_sessions
        self._session_ttl_seconds = session_ttl_seconds
        self._group_cache_capacity = group_cache_capacity
        self._result_cache_capacity = result_cache_capacity
        self._checkpoint_dir = checkpoint_dir
        self._checkpoint_interval_seconds = checkpoint_interval_seconds
        self._tracing_enabled = tracing_enabled
        self._slo_config = dict(slo_config) if slo_config is not None else None
        self._trace_max_spans = trace_max_spans
        #: Fleet trace collection: when ``collect_traces`` is on, every
        #: RPC message asks the worker to ship its finished span tree
        #: back on the reply, and the fragment is handed to
        #: ``trace_sink`` (the front's TraceCollector.add_fragment).
        #: Sink exceptions are swallowed — collection must never fail an
        #: RPC that already succeeded.
        self.collect_traces = False
        self.trace_sink: Callable[[Mapping[str, Any]], None] | None = None
        self.ring = HashRing(self.config.workers)
        #: round-robin turn of the stateless scans
        self._scan_turns = itertools.count()
        self.segments = SegmentRegistry()
        self._run_dir: str | None = None
        self._manifests: dict[str, dict[str, Any]] | None = None
        self._handles: list[_WorkerHandle] = []
        self._ctx = multiprocessing.get_context("spawn")
        self._executor: ThreadPoolExecutor | None = None
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()
        self._started = False

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Export datasets, spawn every worker, wait until all answer ping."""
        if self._started:
            return
        purge_stale_segments()
        self._run_dir = tempfile.mkdtemp(prefix="subdex-cluster-")
        self.segments.install_cleanup()
        self._manifests = {
            name: share_database(db, self.segments)
            for name, (db, _) in self._datasets.items()
        }
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, 2 * self.config.workers),
            thread_name_prefix="subdex-scrape",
        )
        for index in range(self.config.workers):
            handle = _WorkerHandle(
                index=index,
                socket_path=os.path.join(self._run_dir, f"worker-{index}.sock"),
                breaker=CircuitBreaker(
                    f"worker {index}",
                    failure_threshold=self.config.breaker_failure_threshold,
                    reset_seconds=self.config.breaker_reset_seconds,
                ),
            )
            self._handles.append(handle)
            self._spawn(handle)
        deadline = time.monotonic() + self.config.start_timeout_seconds
        for handle in self._handles:
            self._wait_ready(handle, deadline)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="subdex-cluster-monitor", daemon=True
        )
        self._monitor.start()
        self._started = True

    def _spec(self, index: int) -> WorkerSpec:
        assert self._manifests is not None and self._run_dir is not None
        return WorkerSpec(
            index=index,
            n_workers=self.config.workers,
            socket_path=os.path.join(self._run_dir, f"worker-{index}.sock"),
            manifests=self._manifests,
            configs={
                name: cfg for name, (_, cfg) in self._datasets.items()
            },
            default_dataset=self.default_dataset,
            max_sessions=self._max_sessions,
            session_ttl_seconds=self._session_ttl_seconds,
            group_cache_capacity=self._group_cache_capacity,
            result_cache_capacity=self._result_cache_capacity,
            checkpoint_dir=self._checkpoint_dir,
            checkpoint_interval_seconds=self._checkpoint_interval_seconds,
            tracing_enabled=self._tracing_enabled,
            slo_config=self._slo_config,
            trace_max_spans=self._trace_max_spans,
        )

    def _spawn(self, handle: _WorkerHandle) -> None:
        if os.path.exists(handle.socket_path):
            os.unlink(handle.socket_path)
        process = self._ctx.Process(
            target=worker_main,
            args=(self._spec(handle.index),),
            name=f"subdex-worker-{handle.index}",
            daemon=True,
        )
        process.start()
        handle.process = process
        handle.heartbeat_misses = 0

    def _wait_ready(self, handle: _WorkerHandle, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                reply = ipc.request(
                    handle.socket_path,
                    {"op": "ping", "payload": {}},
                    timeout=self.config.heartbeat_timeout_seconds,
                )
                handle.sessions = int(reply["payload"].get("sessions", 0))
                handle.state = "up"
                handle.breaker.record_success()
                return
            except ipc.WorkerIPCError:
                if handle.process is not None and not handle.process.is_alive():
                    break
                time.sleep(0.02)
        handle.state = "failed"
        raise WorkerUnavailableError(
            handle.index,
            "did not become ready in time",
            self.config.retry_after_seconds,
        )

    # -- supervision ---------------------------------------------------------
    def _monitor_loop(self) -> None:
        interval = self.config.heartbeat_interval_seconds
        while not self._stop.wait(interval):
            for handle in list(self._handles):
                if self._stop.is_set() or handle.state == "failed":
                    continue
                process = handle.process
                dead = process is None or not process.is_alive()
                if not dead:
                    try:
                        # bypass the breaker: liveness probing must keep
                        # working while the breaker is open
                        reply = ipc.request(
                            handle.socket_path,
                            {"op": "ping", "payload": {}},
                            timeout=self.config.heartbeat_timeout_seconds,
                        )
                        handle.sessions = int(
                            reply["payload"].get("sessions", 0)
                        )
                        handle.heartbeat_misses = 0
                        handle.state = "up"
                        continue
                    except ipc.WorkerIPCError:
                        handle.heartbeat_misses += 1
                        if handle.heartbeat_misses < self.config.heartbeat_misses:
                            continue
                        # wedged: kill it so the restart starts clean
                        process.kill()
                        process.join(5.0)
                self._restart(handle)

    def _restart(self, handle: _WorkerHandle) -> None:
        with handle.lock:
            if self._stop.is_set() or handle.state == "failed":
                return
            handle.restarts += 1
            if handle.restarts > self.config.max_restarts:
                handle.state = "failed"
                _log.error(
                    "worker %d exceeded %d restarts; marking failed",
                    handle.index,
                    self.config.max_restarts,
                )
                return
            handle.state = "restarting"
            _log.warning(
                "worker %d died; restarting (attempt %d/%d)",
                handle.index,
                handle.restarts,
                self.config.max_restarts,
            )
            if handle.process is not None:
                handle.process.join(0.1)
            time.sleep(self.config.restart_backoff_seconds)
            self._spawn(handle)
            try:
                self._wait_ready(
                    handle,
                    time.monotonic() + self.config.start_timeout_seconds,
                )
            except WorkerUnavailableError:
                _log.error("worker %d failed to come back up", handle.index)

    # -- routing + RPC -------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self.config.workers

    def route(self, session_id: str) -> int:
        """The ring slot (worker index) owning ``session_id``."""
        return self.ring.slot_for(session_id)

    def _message(self, op: str, payload: Mapping[str, Any]) -> dict[str, Any]:
        deadline = current_deadline()
        remaining = None
        if deadline is not None:
            remaining = max(deadline.remaining, 0.001)
        return {
            "op": op,
            "payload": dict(payload),
            "trace_id": current_trace_id(),
            "deadline_s": remaining,
            "collect": self.collect_traces and self.trace_sink is not None,
        }

    def call(
        self,
        worker: int,
        op: str,
        payload: Mapping[str, Any],
        timeout: float | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """One breaker-guarded RPC; returns the worker's (status, payload).

        Raises :class:`BreakerOpenError` while the worker's breaker is
        open and :class:`WorkerUnavailableError` on transport failure —
        both map to a retryable 503 at the HTTP layer.
        """
        handle = self._handles[worker]
        if handle.state == "failed":
            raise WorkerUnavailableError(
                worker, "worker is failed", self.config.retry_after_seconds
            )
        handle.breaker.before_call()
        with span("worker.rpc", worker=worker, op=op):
            try:
                reply = ipc.request(
                    handle.socket_path,
                    self._message(op, payload),
                    timeout=timeout or self.config.rpc_timeout_seconds,
                )
            except ipc.WorkerIPCError as error:
                handle.rpcs_error += 1
                handle.breaker.record_failure(error)
                raise WorkerUnavailableError(
                    worker, str(error), self.config.retry_after_seconds
                ) from error
        handle.rpcs_ok += 1
        handle.breaker.record_success()
        fragment = reply.get("trace") if isinstance(reply, dict) else None
        sink = self.trace_sink
        if fragment is not None and sink is not None:
            try:
                sink(fragment)
            except Exception:  # noqa: BLE001 - collection must not fail RPCs
                pass
        return reply["status"], reply["payload"]

    # -- stateless scans -----------------------------------------------------
    def scatter_scan(
        self, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """Run one ``maps.scan`` op on one worker; returns (status, payload).

        The worker is the next one up in round-robin order; if it is
        unreachable (:class:`WorkerUnavailableError`, an open breaker) the
        scan is retried once on the following worker that is up.  Raises
        :class:`WorkerUnavailableError` when no worker answers.  The scan
        no longer scatters; the name stays because ``stepbench/shims.py``
        wraps this method by attribute name.
        """
        up = [h.index for h in self._handles if h.state == "up"]
        if not up:
            raise WorkerUnavailableError(
                -1, "no worker is up", self.config.retry_after_seconds
            )
        first = next(self._scan_turns) % len(up)
        error: Exception | None = None
        for worker in (up[first:] + up[:first])[:2]:
            try:
                return self.call(worker, "maps.scan", payload)
            except (WorkerUnavailableError, BreakerOpenError) as failure:
                error = failure
        raise WorkerUnavailableError(
            -1, "no worker answered the scan", self.config.retry_after_seconds
        ) from error

    # -- introspection -------------------------------------------------------
    def worker_states(self) -> list[dict[str, Any]]:
        states = []
        for handle in self._handles:
            process = handle.process
            states.append(
                {
                    "worker": handle.index,
                    "state": handle.state,
                    "pid": process.pid if process is not None else None,
                    "alive": bool(process is not None and process.is_alive()),
                    "restarts": handle.restarts,
                    "breaker": handle.breaker.snapshot(),
                    "rpcs": {
                        "ok": handle.rpcs_ok,
                        "error": handle.rpcs_error,
                    },
                }
            )
        return states

    def _scrape_all(
        self, op: str, payload: Mapping[str, Any], timeout: float
    ) -> dict[int, dict[str, Any] | None]:
        """Fan ``op`` out to every worker concurrently; gather best-effort.

        ``timeout`` bounds the *whole* scrape, not each worker: one wedged
        worker costs at most ``timeout`` total, regardless of pool size.
        Unreachable or late workers map to ``None``.
        """
        assert self._executor is not None, "pool not started"
        futures = {
            handle.index: self._executor.submit(
                ipc.request,
                handle.socket_path,
                {"op": op, "payload": dict(payload)},
                timeout=timeout,
            )
            for handle in self._handles
        }
        deadline = time.monotonic() + timeout
        out: dict[int, dict[str, Any] | None] = {}
        for index, future in futures.items():
            try:
                reply = future.result(max(0.0, deadline - time.monotonic()))
                out[index] = reply["payload"]
            except (ipc.WorkerIPCError, FuturesTimeoutError):
                out[index] = None
        return out

    def stats(
        self, limit: int | None = None, timeout: float = 1.0
    ) -> dict[str, Any]:
        """Best-effort per-worker stats scrape (skips unreachable workers)."""
        return {
            str(index): payload if payload is not None else {"unreachable": True}
            for index, payload in self._scrape_all(
                "stats", {"limit": limit}, timeout
            ).items()
        }

    def slo_totals(
        self, timeout: float = 1.0
    ) -> dict[int, dict[str, Any] | None]:
        """Best-effort per-worker SLO window scrape (None = unreachable).

        Returns each reachable worker's per-class per-window raw counts;
        the front merges them by addition into the fleet scorecard (the
        math lives in :func:`repro.slo.tracker.scorecard_from_totals`).
        """
        out: dict[int, dict[str, Any] | None] = {}
        for index, payload in self._scrape_all("slo", {}, timeout).items():
            out[index] = (
                payload.get("totals") if payload is not None else None
            )
        return out

    def live_sessions(self, timeout: float = 2.0) -> list[dict[str, Any]]:
        """Merge every reachable worker's session list (for GET /sessions)."""
        merged: list[dict[str, Any]] = []
        for index, payload in sorted(
            self._scrape_all("sessions.list", {}, timeout).items()
        ):
            if payload is None:
                continue
            for summary in payload["sessions"]:
                summary["worker"] = index
                merged.append(summary)
        return merged

    def metric_families(self) -> list[MetricFamily]:
        """``worker``-labelled families for the front's ``/metrics``."""
        up = MetricFamily(
            "subdex_worker_up",
            "gauge",
            "Worker liveness (1 up, 0 down/restarting/failed).",
        )
        restarts = MetricFamily(
            "subdex_worker_restarts_total",
            "counter",
            "Worker restarts by the supervisor.",
        )
        rpcs = MetricFamily(
            "subdex_worker_rpcs_total",
            "counter",
            "Front-to-worker RPCs by worker and outcome.",
        )
        sessions = MetricFamily(
            "subdex_worker_sessions",
            "gauge",
            "Live sessions owned by each worker.",
        )
        for handle in self._handles:
            alive = (
                handle.state == "up"
                and handle.process is not None
                and handle.process.is_alive()
            )
            up.add(1.0 if alive else 0.0, worker=handle.index)
            restarts.add(handle.restarts, worker=handle.index)
            rpcs.add(handle.rpcs_ok, worker=handle.index, outcome="ok")
            rpcs.add(handle.rpcs_error, worker=handle.index, outcome="error")
            if alive:
                # cached from the heartbeat monitor's last ping — /metrics
                # must never block on per-worker IPC
                sessions.add(handle.sessions, worker=handle.index)
        return [up, restarts, rpcs, sessions]

    # -- shutdown ------------------------------------------------------------
    def shutdown(self, drain_seconds: float = 10.0) -> None:
        """Drain and join every worker, then unlink all shared memory."""
        if not self._started and not self._handles:
            return
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(
                self.config.heartbeat_interval_seconds
                + self.config.heartbeat_timeout_seconds
                + 1.0
            )
        deadline = time.monotonic() + drain_seconds
        for handle in self._handles:
            try:
                ipc.request(
                    handle.socket_path,
                    {"op": "shutdown", "payload": {"drain": True}},
                    timeout=min(2.0, drain_seconds),
                )
            except ipc.WorkerIPCError:
                pass
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(2.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
            handle.state = "stopped"
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self.segments.unlink_all()
        if self._run_dir is not None:
            shutil.rmtree(self._run_dir, ignore_errors=True)
        self._started = False
