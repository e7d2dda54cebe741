"""The worker process: one engine per dataset behind a Unix socket.

Each worker is spawned (not forked — the front is multi-threaded) from a
picklable :class:`WorkerSpec`, attaches the shared-memory dataset
manifests as zero-copy views, and serves pickled request/response
messages over its ``AF_UNIX`` socket:

* **session ops** — the worker owns every session the consistent-hash
  ring routes to its slot and runs them on its own
  :class:`~repro.server.app.SessionService` — the class the
  single-process server runs — over its shm-attached engines, so
  per-session responses are byte-identical because the same code runs
  (the stateless ``maps.scan`` op too, on whichever worker the front
  picks);
* **ping / stats / shutdown** — supervision, observability scrape, and
  graceful drain.

Resilience mirrors the front: each worker's service keeps its own
checkpoint store (``<checkpoint_dir>/worker-<i>``), restores from it on
(re)start, checkpoints on every mutation, and flushes on SIGTERM before
exiting 0.  Observability crosses the boundary: requests carry the
front's trace id into a per-worker tracer + span-stats sink whose
summary the front exposes under ``/debug/spans/summary``.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.caching import CachingEngine
from ..core.engine import SubDEx, SubDExConfig
from ..obs.collect import ThreadLocalTraceCapture, fragment_from_trace
from ..obs.tracing import Tracer
from ..perf.spanstats import SpanStatsSink
from ..resilience.checkpoint import CheckpointStore
from ..resilience.deadline import Deadline, deadline_scope
# the module, not its names: the server package imports this module while
# repro.server.app is still initialising, so names resolve at call time
from ..server import app as server_app
# the serialisers are unused here but stay module attributes: the
# stepbench traced pass wraps repro.cluster.worker.step_to_json and
# rating_map_to_json
from ..server.protocol import (  # noqa: F401
    ProtocolError,
    rating_map_to_json,
    step_to_json,
)
from ..server.registry import SessionRegistry
from ..slo import SLOConfig, SLOTracker
from . import ipc
from .partition import attach_database
from .shm import SegmentRegistry

__all__ = ["WorkerSpec", "worker_main"]

_log = logging.getLogger("repro.cluster.worker")


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs, in picklable form."""

    index: int
    n_workers: int
    socket_path: str
    #: dataset name → :func:`~repro.cluster.partition.share_database` manifest
    manifests: Mapping[str, Mapping[str, Any]]
    #: dataset name → engine configuration (mirrors the front's factories)
    configs: Mapping[str, SubDExConfig]
    default_dataset: str
    max_sessions: int = 64
    session_ttl_seconds: float = 1800.0
    group_cache_capacity: int = 256
    result_cache_capacity: int = 128
    #: Per-worker checkpoint subdirectories hang off this root.
    checkpoint_dir: str | None = None
    checkpoint_interval_seconds: float = 30.0
    tracing_enabled: bool = True
    #: JSON form of the front's :class:`~repro.slo.SLOConfig`; ``None``
    #: disables per-worker SLO windows (the front still tracks HTTP-level
    #: SLOs itself).
    slo_config: Mapping[str, Any] | None = None
    #: Truncation guard for shipped trace fragments (fleet collection).
    trace_max_spans: int = 512


class WorkerApp:
    """Request dispatch + engine/session/checkpoint state of one worker."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.started = time.monotonic()
        self.segments = SegmentRegistry()
        self.databases = {
            name: attach_database(manifest, self.segments)
            for name, manifest in spec.manifests.items()
        }
        self._engines: dict[str, CachingEngine] = {}
        self._engines_lock = threading.Lock()
        self.tracer = Tracer(enabled=spec.tracing_enabled)
        self.span_stats = SpanStatsSink()
        self.tracer.add_sink(self.span_stats)
        # fleet trace collection: the root span closes on the handling
        # thread, so a thread-local capture lets handle() pick the
        # finished trace up and ship it back on the IPC reply
        self.trace_capture = ThreadLocalTraceCapture()
        self.tracer.add_sink(self.trace_capture)
        #: the sessions the ring routes here.  Refinement tokens live in
        #: this process on purpose — a worker that dies takes its tokens
        #: with it, and polls after the restart answer ``refinement_lost``.
        self.sessions = server_app.SessionService(
            self.engine,
            spec.default_dataset,
            SessionRegistry(
                max_sessions=spec.max_sessions,
                ttl_seconds=spec.session_ttl_seconds,
            ),
            checkpoint_store=(
                CheckpointStore(
                    os.path.join(spec.checkpoint_dir, f"worker-{spec.index}")
                )
                if spec.checkpoint_dir is not None
                else None
            ),
            checkpoint_interval_seconds=spec.checkpoint_interval_seconds,
            worker=spec.index,
        )
        self.stop = threading.Event()
        self.requests_handled = 0
        #: per-worker SLO windows over op traffic, scraped by the front's
        #: GET /slo and merged by addition into the fleet scorecard
        self.slo: SLOTracker | None = None
        if spec.slo_config is not None:
            self.slo = SLOTracker(SLOConfig.from_json(spec.slo_config))

    # -- engines -------------------------------------------------------------
    def engine(self, dataset: str) -> CachingEngine:
        database = self.databases.get(dataset)
        if database is None:
            raise ProtocolError(
                f"unknown dataset {dataset!r} "
                f"(served datasets: {', '.join(self.databases)})",
                "unknown_dataset",
            )
        with self._engines_lock:
            engine = self._engines.get(dataset)
            if engine is None:
                engine = CachingEngine(
                    SubDEx(database, self.spec.configs[dataset]),
                    group_capacity=self.spec.group_cache_capacity,
                    result_capacity=self.spec.result_cache_capacity,
                )
                self._engines[dataset] = engine
            return engine

    # -- dispatch ------------------------------------------------------------
    def handle(self, message: Mapping[str, Any]) -> dict[str, Any]:
        op = message.get("op", "<missing>")
        payload = message.get("payload") or {}
        deadline_s = message.get("deadline_s")
        deadline = Deadline(deadline_s) if deadline_s else None
        started = time.perf_counter()
        self.requests_handled += 1
        with self.tracer.span(
            "worker.request",
            trace_id=message.get("trace_id"),
            op=op,
            worker=self.spec.index,
        ) as root:
            try:
                with deadline_scope(deadline):
                    handler = getattr(self, "op_" + op, None)
                    if handler is not None:
                        status, reply = handler(payload)
                    else:
                        status, reply = self.sessions.run(op, payload)
            except Exception as error:  # noqa: BLE001 - mapped to envelopes
                status, reply = server_app.error_envelope(error)
            root.set(status=status)
        elapsed = time.perf_counter() - started
        # supervision chatter (heartbeats, scrapes) would drown the ops
        # class; only real work feeds the worker's SLO windows
        if self.slo is not None and op not in ("ping", "stats", "slo"):
            shed, degraded, rung = server_app._classify_payload(status, reply)
            self.slo.ingest(
                op, status, elapsed, shed=shed, degraded=degraded, rung=rung,
                op=True,
            )
        envelope = {
            "status": status,
            "payload": reply,
            "worker": self.spec.index,
        }
        # fleet trace collection: ship this request's finished span tree
        # back as a fragment when the front asked for it (supervision
        # chatter uses raw ipc.request and never sets "collect")
        trace = self.trace_capture.take()
        if (
            message.get("collect")
            and message.get("trace_id")
            and trace is not None
            and trace.trace_id == message.get("trace_id")
        ):
            envelope["trace"] = fragment_from_trace(
                trace,
                self.spec.index,
                os.getpid(),
                max_spans=self.spec.trace_max_spans,
            )
        return envelope

    # -- supervision ops -----------------------------------------------------
    def op_ping(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        return 200, {
            "worker": self.spec.index,
            "pid": os.getpid(),
            "sessions": self.sessions.registry.live_count,
            "uptime_seconds": time.monotonic() - self.started,
        }

    def op_stats(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        limit = payload.get("limit")
        stats: dict[str, Any] = {
            "worker": self.spec.index,
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self.started,
            "requests_handled": self.requests_handled,
            "sessions": self.sessions.registry.counters(),
            "spans": self.span_stats.summary(limit=limit),
            "refinements": self.sessions.refinements.counters(),
        }
        if self.sessions.checkpointer is not None:
            stats["checkpoints"] = self.sessions.checkpointer.counters()
        return 200, stats

    def op_slo(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        """This worker's SLO window counts (merged at the front by addition)."""
        return 200, {
            "worker": self.spec.index,
            "totals": self.slo.totals() if self.slo is not None else None,
        }

    def op_shutdown(
        self, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        self.stop.set()
        return 200, {"worker": self.spec.index, "stopping": True}


def _serve_connection(app: WorkerApp, conn: socket.socket) -> None:
    try:
        conn.settimeout(60.0)
        message = ipc.read_message(conn)
        ipc.write_message(conn, app.handle(message))
    except ipc.WorkerIPCError:
        pass  # client went away; nothing to answer
    except Exception:  # noqa: BLE001 - a worker thread must never die loudly
        _log.exception("worker %d: connection handler failed", app.spec.index)
    finally:
        conn.close()


def worker_main(spec: WorkerSpec) -> int:
    """Spawn entry point: attach, restore, serve until told to stop."""
    logging.basicConfig(level=logging.WARNING)
    app = WorkerApp(spec)

    def _request_stop(signum: int, frame: object) -> None:
        app.stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # front handles Ctrl-C

    restored, _ = app.sessions.restore()
    if restored:
        _log.info("worker %d: restored %d session(s)", spec.index, restored)
    checkpointer = app.sessions.checkpointer
    if checkpointer is not None:
        checkpointer.start()

    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        if os.path.exists(spec.socket_path):
            os.unlink(spec.socket_path)
        listener.bind(spec.socket_path)
        listener.listen(128)
        listener.settimeout(0.2)  # poll the stop flag between accepts
        while not app.stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=_serve_connection,
                args=(app, conn),
                name=f"worker-{spec.index}-conn",
                daemon=True,
            ).start()
    finally:
        listener.close()
        try:
            os.unlink(spec.socket_path)
        except OSError:
            pass
        # drain: one final checkpoint per live session, then detach
        if checkpointer is not None:
            checkpointer.stop()
            checkpointer.flush()
        app.segments.close_attached()
    return 0
