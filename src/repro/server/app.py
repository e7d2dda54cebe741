"""The SubDEx HTTP application: stdlib ``ThreadingHTTPServer`` + routes.

Architecture (one process, many threads):

* one :class:`EnginePool` — per dataset, a lazily-built
  :class:`~repro.core.engine.SubDEx` wrapped in a shared, thread-safe
  :class:`~repro.core.caching.CachingEngine`, so every session on that
  dataset amortises group materialisation and RM-Set generation; each
  dataset sits behind a :class:`~repro.resilience.breaker.CircuitBreaker`
  so a failing load answers fast 503s instead of retrying on every request;
* one :class:`SessionService` — every session op (create, maps,
  recommend, refine, apply, history, close) implemented once over a
  :class:`~repro.server.registry.SessionRegistry` (per-session locks, TTL
  idle eviction, a bounded live-session cap).  With ``--workers N`` the
  handlers send the same op and payload to the owning worker, which runs
  its own :class:`SessionService`, so both deployments answer the same
  bytes; failed ops map through the one shared :func:`error_envelope`;
* one :class:`~repro.resilience.gate.AdmissionGate` — the worker budget:
  past the soft limit heavy requests degrade (stale RM-Sets, no GMM pass,
  ``degraded: true`` in the response), past the hard limit they are shed
  with 503 + ``Retry-After``;
* per request, a :class:`~repro.resilience.deadline.Deadline` — from the
  ``X-Deadline-Ms`` header (or the server default), propagated down into
  the phased GroupBy scans; overruns answer a structured 504;
* optionally the service's
  :class:`~repro.resilience.checkpoint.SessionCheckpointer` — crash-safe
  session persistence: on-mutation + periodic checkpoints,
  restore-on-startup, and a final flush during graceful shutdown.

Endpoints (all JSON; see ``docs/API.md`` for the full reference)::

    GET    /health                          liveness + datasets
    GET    /metrics                         serving metrics
    GET    /debug/traces                    recent finished traces
    GET    /debug/profile                   sampling profiler (collapsed/json)
    GET    /debug/spans/summary             span-derived cost accounting
    GET    /cluster/workers                 worker states (cluster mode)
    POST   /cluster/maps                    stateless exact scan of one group
    POST   /sessions                        create a session (opening step)
    GET    /sessions                        list live sessions
    GET    /sessions/{id}                   session summary
    DELETE /sessions/{id}                   close a session
    GET    /sessions/{id}/maps              current rating maps
    GET    /sessions/{id}/recommendations   numbered top-o recommendations
    POST   /sessions/{id}/apply             apply a recommendation / edit
    GET    /sessions/{id}/history           exploration log (JSON schema)
"""

from __future__ import annotations

import json
import logging
import re
import signal
import threading
import time
import uuid
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterable, Iterator, Mapping
from urllib.parse import parse_qs, urlsplit

# import the module, not names: repro.cluster.worker imports the server
# package, so when an import starts from the cluster side this module
# runs while repro.cluster.supervisor is still partially initialised —
# its names only resolve at call time, which is all we need
from ..cluster import supervisor as cluster_supervisor
from ..core.caching import CachingEngine
from ..core.engine import SubDEx
from ..core.generator import PruningStrategy, RMSetGenerator
from ..core.rating_maps import enumerate_map_specs
from ..core.utility import SeenMaps
from ..index.cubes import StepSlices
from ..model.groups import RatingGroup
from ..core.history import ExplorationLog
from ..core.modes import ExplorationMode, ExplorationPath
from ..exceptions import EmptyGroupError, OperationError, ReproError
from ..obs.collect import TailSampler, TraceCollector
from ..obs.metrics import MetricFamily
from ..obs.process import ProcessCollector
from ..obs.sinks import JsonlTraceSink, SlowTraceLog, TraceRingBuffer
from ..obs.tracing import Tracer, annotate, current_trace_partial
from ..obs.tracing import span as obs_span
from ..perf.profiler import SamplingProfiler
from ..perf.spanstats import SpanStatsSink
from ..resilience.breaker import BreakerOpenError, CircuitBreaker
from ..resilience.checkpoint import (
    CheckpointStore,
    SessionCheckpoint,
    SessionCheckpointer,
    restore_session,
)
from ..anytime import (
    AnytimeController,
    QualityLadder,
    QualityRung,
    RefinementLostError,
    RefinementStore,
    budget_deadline,
    parse_budget_ms,
)
from ..resilience.deadline import Deadline, DeadlineExceeded, deadline_scope
from ..slo import SLOTracker, load_slo_config, merge_worker_totals
from ..slo.tracker import scorecard_from_totals
from ..resilience.faults import FaultPlan, InjectedFault
from ..resilience.gate import (
    AdmissionGate,
    OverloadedError,
    Priority,
    under_pressure,
)
from .metrics import ServerMetrics
from .protocol import (
    ProtocolError,
    apply_edit,
    criteria_from_json,
    criteria_to_json,
    error_payload,
    rating_map_to_json,
    recommendation_to_json,
    step_to_json,
)
from .registry import (
    ManagedSession,
    SessionGoneError,
    SessionLimitError,
    SessionRegistry,
    UnknownSessionError,
)

__all__ = [
    "DatasetLoadError",
    "EnginePool",
    "ServerConfig",
    "SubDExServer",
    "build_server",
    "serve",
]

_log = logging.getLogger("repro.server")
_http_log = logging.getLogger("repro.server.http")

#: Accepted shape of a client-supplied ``X-Trace-Id`` (hex/dash, bounded).
_TRACE_ID_RE = re.compile(r"^[0-9a-fA-F-]{8,64}$")


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one server process."""

    max_sessions: int = 64
    session_ttl_seconds: float = 1800.0
    max_body_bytes: int = 1 << 20
    metrics_reservoir_size: int = 1024
    group_cache_capacity: int = 256
    result_cache_capacity: int = 128
    #: Default per-request time budget in milliseconds; ``None`` disables
    #: deadlines unless the client sends ``X-Deadline-Ms``.
    default_deadline_ms: int | None = None
    #: Worker budget: the hard concurrent-request limit (sheddable work
    #: past it gets 503) and the soft limit past which heavy work degrades
    #: (``None`` → 3/4 of the hard limit).
    max_inflight: int = 32
    soft_inflight: int | None = None
    shed_retry_after_seconds: float = 1.0
    #: Per-dataset engine-construction circuit breaker.
    breaker_failure_threshold: int = 3
    breaker_reset_seconds: float = 30.0
    #: Crash-safe sessions: ``None`` disables checkpointing.
    checkpoint_dir: str | None = None
    checkpoint_interval_seconds: float = 30.0
    #: Graceful shutdown: how long to wait for in-flight requests.
    drain_seconds: float = 10.0
    #: Tracing: one root span per request, ``X-Trace-Id`` response header,
    #: engine-layer child spans, ``?debug=1`` span-tree breakdowns.
    tracing_enabled: bool = True
    #: Recent finished traces kept in memory for ``GET /debug/traces``.
    trace_buffer_size: int = 128
    #: Byte budget (MiB) for each in-memory trace store — the ring buffer
    #: and the fleet collector each evict oldest-first past it.
    trace_ring_mb: float = 16.0
    #: Pathological span trees are truncated past this many spans per
    #: trace (per process), with an explicit ``truncated: true`` marker.
    trace_max_spans: int = 512
    #: Tail-sampling keep probability for unremarkable traces.  Error,
    #: shed, degraded, slow (≥ ``slow_request_ms``) and SLO-burn-window
    #: traces are always kept regardless of this rate.
    trace_sample_rate: float = 1.0
    #: Optional JSONL file receiving every finished trace.
    trace_file: str | None = None
    #: Rotate ``trace_file`` past this size (``trace.jsonl →
    #: trace.jsonl.1``, keeping 3 generations); ``None`` grows unbounded.
    trace_file_max_mb: float | None = None
    #: Requests slower than this are logged at WARNING with their span
    #: tree; ``None`` disables the slow-request log.
    slow_request_ms: float | None = 1000.0
    #: Upper bound on one ``GET /debug/profile`` sampling window — the
    #: handler thread is occupied for the whole window, so cap it.
    profile_max_seconds: float = 30.0
    #: Cluster mode: spawn this many worker processes behind the front
    #: (``0`` = classic single-process serving).  Sessions are routed to
    #: workers by consistent hash; each stateless scan runs on one worker,
    #: round-robin.
    workers: int = 0
    worker_heartbeat_seconds: float = 0.5
    worker_rpc_timeout_seconds: float = 30.0
    worker_max_restarts: int = 8
    #: Anytime recommendations: clients may send ``?budget_ms=`` for a
    #: soft-bounded best-so-far answer, and under load the quality ladder
    #: degrades recommendation traffic instead of shedding it.  Requests
    #: with no budget on an unloaded server are untouched by this flag.
    anytime_enabled: bool = True
    #: Latency EWMA target feeding the degradation controller.
    anytime_latency_target_ms: float = 500.0
    #: Bounds of the background refinement-job store.
    refinement_capacity: int = 64
    refinement_ttl_seconds: float = 600.0
    #: SLO tracking: per-endpoint-class objectives scored over rolling
    #: 1m/5m/1h windows, served at ``GET /slo`` and as ``subdex_slo_*``
    #: metric families, with burn-rate threshold events in the log.
    slo_enabled: bool = True
    #: Optional ``--slo-config`` JSON file overriding the shipped
    #: objectives/route classes (see docs/OBSERVABILITY.md).
    slo_config_path: str | None = None


class DatasetLoadError(ReproError):
    """A dataset engine failed to build (HTTP 503, retryable)."""

    def __init__(self, dataset: str, error: BaseException) -> None:
        super().__init__(
            f"dataset {dataset!r} failed to load: "
            f"{type(error).__name__}: {error}"
        )
        self.dataset = dataset


class _DatasetSlot:
    """One dataset's lazily-built engine plus its failure bookkeeping."""

    __slots__ = ("factory", "lock", "engine", "breaker")

    def __init__(
        self, factory: Callable[[], SubDEx], breaker: CircuitBreaker
    ) -> None:
        self.factory = factory
        self.lock = threading.Lock()
        self.engine: CachingEngine | None = None
        self.breaker = breaker


class EnginePool:
    """Per-dataset shared caching engines with circuit-broken construction.

    ``factories`` maps dataset name → zero-argument :class:`SubDEx`
    builder; engines are built lazily on first use (dataset loading is the
    expensive part) and wrapped in one shared :class:`CachingEngine` each.

    A failed build is **never cached**: the slot stays empty, the failure
    feeds the dataset's circuit breaker, and the request answers 503.
    After ``breaker_failure_threshold`` consecutive failures the breaker
    opens and further requests fail fast — no repeated doomed loads —
    until the cooldown admits a single probe.
    """

    def __init__(
        self,
        factories: Mapping[str, Callable[[], SubDEx]],
        group_capacity: int = 256,
        result_capacity: int = 128,
        breaker_failure_threshold: int = 3,
        breaker_reset_seconds: float = 30.0,
        fault_plan: FaultPlan | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not factories:
            raise ValueError("EnginePool needs at least one dataset factory")
        self._group_capacity = group_capacity
        self._result_capacity = result_capacity
        self._fault_plan = fault_plan
        self._slots = {
            name: _DatasetSlot(
                factory,
                CircuitBreaker(
                    f"dataset {name!r}",
                    failure_threshold=breaker_failure_threshold,
                    reset_seconds=breaker_reset_seconds,
                    clock=clock,
                ),
            )
            for name, factory in factories.items()
        }

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._slots)

    @property
    def default_dataset(self) -> str:
        return next(iter(self._slots))

    def breaker(self, name: str) -> CircuitBreaker:
        return self._slots[name].breaker

    def get(self, name: str) -> CachingEngine:
        """The shared caching engine for ``name`` (built on first use)."""
        slot = self._slots.get(name)
        if slot is None:
            raise ProtocolError(
                f"unknown dataset {name!r} "
                f"(served datasets: {', '.join(self._slots)})",
                "unknown_dataset",
            )
        if self._fault_plan is not None:
            # chaos site "pool.get": a slow engine call on the request path
            self._fault_plan.check("pool.get")
        with slot.lock:
            if slot.engine is not None:
                return slot.engine
            slot.breaker.before_call()  # fast 503 while the circuit is open
            try:
                if self._fault_plan is not None:
                    self._fault_plan.check("pool.build")
                engine = CachingEngine(
                    slot.factory(),
                    group_capacity=self._group_capacity,
                    result_capacity=self._result_capacity,
                )
            except Exception as error:
                # evict-on-failure: the slot stays empty so the next
                # admitted attempt rebuilds from scratch
                slot.breaker.record_failure(error)
                raise DatasetLoadError(name, error) from error
            slot.breaker.record_success()
            slot.engine = engine
            return engine

    def cache_snapshots(self) -> dict[str, Any]:
        """Per-dataset group/result cache statistics (for ``/metrics``)."""
        snapshots: dict[str, Any] = {}
        for name, slot in self._slots.items():
            with slot.lock:
                engine = slot.engine
            if engine is None:
                continue
            snapshots[name] = {
                "group": engine.group_stats.snapshot(),
                "result": engine.result_stats.snapshot(),
                "stale_hits": engine.stale_hits,
                "flight_waits": engine.flight_waits,
            }
            index = engine.engine.index
            if index is not None:
                snapshots[name]["index"] = index.stats()
            snapshots[name]["batch"] = (
                engine.engine.recommender.batch_stats()
            )
        return snapshots

    def breaker_snapshots(self) -> dict[str, Any]:
        return {
            name: slot.breaker.snapshot()
            for name, slot in self._slots.items()
        }


def error_envelope(error: Exception) -> tuple[int, dict[str, Any]]:
    """The (status, payload) a failed session op answers with.

    Shared by the HTTP front and the cluster worker, so an error reads
    the same whichever process raised it; the front maps only its own
    failures (oversized bodies, dataset breakers, injected faults, dead
    workers) before falling through to this.
    """
    if isinstance(error, DeadlineExceeded):
        return 504, error_payload(
            "deadline_exceeded", str(error), retryable=True
        )
    if isinstance(error, ProtocolError):
        return 400, error_payload(error.code, str(error))
    if isinstance(error, UnknownSessionError):
        return 404, error_payload("unknown_session", str(error))
    if isinstance(error, SessionGoneError):
        return 410, error_payload("session_gone", str(error))
    if isinstance(error, RefinementLostError):
        return 410, error_payload("refinement_lost", str(error))
    if isinstance(error, SessionLimitError):
        return 429, error_payload(
            "too_many_sessions", str(error), retryable=True, retry_after=1
        )
    if isinstance(error, (EmptyGroupError, OperationError)):
        return 400, error_payload("empty_group", str(error))
    if isinstance(error, ReproError):
        return 400, error_payload("bad_request", str(error))
    return 500, error_payload(
        "internal_error", f"{type(error).__name__}: {error}"
    )


def preview_generator(generator: RMSetGenerator) -> RMSetGenerator:
    """The single-phase, no-pruning twin of ``generator``.

    ``generate_from_counts`` produces exactly what ``generate`` produces
    under this configuration (the Recommendation Builder's preview
    configuration), which pins the stateless scan to exact counts.
    """
    return RMSetGenerator(
        replace(generator.config, n_phases=1, pruning=PruningStrategy.NONE)
    )


class SessionService:
    """The session ops (create, maps, recommend, apply, log, ...), once.

    Both deployments run this class: the single-process front calls it
    directly, and in cluster mode each worker runs its own instance for
    the sessions the hash ring routes to it.  Ops are keyed by the IPC op
    names in :attr:`OPS` and take the same payload dicts either way, so a
    session answers the same bytes whichever process owns it.

    ``engine`` maps a dataset name to its shared caching engine (the
    front's :meth:`EnginePool.get`, a worker's shm-attached engines).
    ``worker`` is stamped into ``session.summary`` replies so clients can
    tell which worker owns a session; ``None`` leaves it out.
    """

    #: IPC op name → method name
    OPS = {
        "session.create": "create",
        "sessions.list": "list_sessions",
        "session.summary": "summary",
        "session.close": "close",
        "session.maps": "maps",
        "session.recommendations": "recommendations",
        "session.refine": "refine",
        "session.apply": "apply",
        "session.history": "history",
        "maps.scan": "scan",
    }

    def __init__(
        self,
        engine: Callable[[str], CachingEngine],
        default_dataset: str,
        registry: SessionRegistry,
        checkpoint_store: CheckpointStore | None = None,
        checkpoint_interval_seconds: float = 30.0,
        refinements: RefinementStore | None = None,
        worker: int | None = None,
    ) -> None:
        self.engine = engine
        self.default_dataset = default_dataset
        self.registry = registry
        self.refinements = refinements or RefinementStore()
        self.ladder = QualityLadder()
        self.worker = worker
        self.checkpointer: SessionCheckpointer | None = None
        if checkpoint_store is not None:
            self.checkpointer = SessionCheckpointer(
                checkpoint_store,
                source=self._checkpoint_source,
                interval_seconds=checkpoint_interval_seconds,
            )

    def run(
        self, op: str, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """Run one session op; failures raise (see :func:`error_envelope`)."""
        method = self.OPS.get(op)
        if method is None:
            raise ProtocolError(f"unknown session op {op!r}", "unknown_op")
        return getattr(self, method)(payload)

    # -- checkpointing --------------------------------------------------------
    def _checkpoint_source(self) -> Iterator[SessionCheckpoint]:
        """Periodic-flush source: every live session whose lock is free.

        A busy session is mid-mutation and will checkpoint itself when the
        op finishes; skipping it avoids stalling the flush thread on a
        long-running step.
        """
        for managed in self.registry.live_sessions():
            if managed.session is None:
                continue
            if not managed.lock.acquire(blocking=False):
                continue
            try:
                yield self._capture(managed)
            finally:
                managed.lock.release()

    @staticmethod
    def _capture(managed: ManagedSession) -> SessionCheckpoint:
        return SessionCheckpoint.capture(
            managed.session_id,
            managed.dataset,
            managed.created_wall,
            managed.session,
        )

    def _save_checkpoint(self, managed: ManagedSession) -> None:
        """On-mutation checkpoint (caller holds the session lock)."""
        if self.checkpointer is not None and managed.session is not None:
            self.checkpointer.save(self._capture(managed))

    def restore(self) -> tuple[int, int]:
        """Replay every checkpoint into a live session: (restored, failed).

        Called once before serving.  A checkpoint that cannot be restored
        (unknown dataset, failing engine, replay error) is skipped and
        counted — a corrupt session must not block the healthy ones.
        """
        if self.checkpointer is None:
            return 0, 0
        restored = failed = 0
        for checkpoint in self.checkpointer.store.load_all():
            try:
                engine = self.engine(checkpoint.dataset)
                session = restore_session(engine, checkpoint)
                managed = self.registry.adopt(
                    checkpoint.session_id,
                    checkpoint.dataset,
                    session,
                    created_wall=checkpoint.created_wall,
                )
                managed.latest = session.steps[-1] if session.steps else None
                restored += 1
            except Exception:  # noqa: BLE001 - skip the unrestorable
                failed += 1
                _log.warning(
                    "failed to restore session %s (dataset %r); skipping it",
                    checkpoint.session_id,
                    checkpoint.dataset,
                    exc_info=True,
                )
        return restored, failed

    # -- lifecycle ------------------------------------------------------------
    def create(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        body = payload.get("body") or {}
        dataset = body.get("dataset") or self.default_dataset
        if not isinstance(dataset, str):
            raise ProtocolError("'dataset' must be a string", "invalid_request")
        annotate(dataset=dataset)
        engine = self.engine(dataset)
        start = (
            criteria_from_json(body["criteria"])
            if body.get("criteria") is not None
            else None
        )
        managed = self.registry.create(
            dataset, lambda: engine.session(start), session_id=payload.get("sid")
        )
        with self.registry.acquire(managed.session_id) as live:
            record = live.session.step(with_recommendations=True)
            live.latest = record
            self._save_checkpoint(live)
            return 201, {
                "session_id": live.session_id,
                "dataset": dataset,
                "degraded": record.degraded,
                "step": step_to_json(record),
            }

    def list_sessions(
        self, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        return 200, {"sessions": self.registry.summaries()}

    def summary(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        with self.registry.acquire(payload["sid"]) as managed:
            summary = managed.summary(now=time.monotonic())
            summary["criteria"] = (
                criteria_to_json(managed.session.criteria)
                if managed.session is not None
                else None
            )
            if self.worker is not None:
                summary["worker"] = self.worker
            return 200, summary

    def close(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        sid = payload["sid"]
        managed = self.registry.close(sid)
        if self.checkpointer is not None:
            self.checkpointer.forget(sid)
        return 200, {
            "session_id": sid,
            "closed": True,
            "n_steps": managed.session.n_steps if managed.session else 0,
        }

    # -- stateless scans ------------------------------------------------------
    def scan(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        """One group's exact rating maps under a fresh display history.

        The group's count matrices come from one vectorised pass over its
        rows (:meth:`StepSlices.group_hist`, the bincount the index's
        ``parent_counts`` runs).  With an index the slices are
        :meth:`~repro.index.facade.IndexedDatabase.step_slices`, so a root
        scan reads the root's kept counts and any other group's rows come
        from posting lists; without one the group is selected from the
        tables.  Only counts and postings are shared.  :func:`preview_generator`
        finalises the counts the way a single-phase, unpruned ``generate``
        would, so every deployment answers the same bytes and ``degraded``
        is always false.
        """
        body = payload.get("body") or {}
        dataset = body.get("dataset") or self.default_dataset
        if not isinstance(dataset, str):
            raise ProtocolError("'dataset' must be a string", "invalid_request")
        annotate(dataset=dataset)
        criteria = criteria_from_json(body.get("criteria"))
        k = body.get("k")
        if k is not None and (
            not isinstance(k, int) or isinstance(k, bool) or k < 1
        ):
            raise ProtocolError(
                f"'k' must be an integer >= 1, got {k!r}", "invalid_request"
            )
        engine = self.engine(dataset)
        database = engine.database
        specs = tuple(enumerate_map_specs(database, criteria))
        index = engine.engine.index
        with obs_span("engine.scan", dataset=dataset, n_specs=len(specs)):
            slices = (
                StepSlices(database, RatingGroup(database, criteria).rows)
                if index is None
                else index.step_slices(criteria)
            )
            result = preview_generator(
                engine.engine.generator
            ).generate_from_counts(
                criteria,
                specs,
                slices.group_hist,
                lambda spec: tuple(
                    database.aligned_grouping(spec.side, spec.attribute).labels
                ),
                len(slices.rows),
                SeenMaps(
                    database.dimensions,
                    n_attributes=len(tuple(database.grouping_attributes())),
                ),
                k=k,
            )
        return 200, {
            "dataset": dataset,
            "criteria": criteria_to_json(criteria),
            "group_size": len(slices.rows),
            "degraded": False,
            "worker": self.worker,
            "maps": [
                rating_map_to_json(rm, result.dw_utility(rm))
                for rm in result.selected
            ],
        }

    # -- exploration ----------------------------------------------------------
    def maps(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        sid = payload["sid"]
        with self.registry.acquire(sid) as managed:
            record = managed.latest
            return 200, {
                "session_id": sid,
                "step_index": record.index if record else 0,
                "degraded": record.degraded if record else False,
                "criteria": criteria_to_json(record.criteria) if record else None,
                "maps": [
                    rating_map_to_json(rm, record.result.dw_utility(rm))
                    for rm in record.result.selected
                ]
                if record
                else [],
            }

    @staticmethod
    def _numbered(scored: Iterable[Any]) -> list[dict[str, Any]]:
        return [recommendation_to_json(i, s) for i, s in enumerate(scored, 1)]

    def _stored(
        self, managed: ManagedSession, limit: int | None
    ) -> list[dict[str, Any]]:
        """The latest step's numbered recommendations, top ``limit``."""
        scored = managed.latest.recommendations if managed.latest else ()
        return self._numbered(scored[:limit])

    def recommendations(
        self, payload: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """Stored recommendations, or an anytime answer when a rung is set.

        The caller picks the rung (``rung``) from its load signals and may
        add a soft ``budget_ms`` and a ``force_cut_after`` chaos cut; the
        ambient deadline stays the hard limit and still 504s on overrun.
        """
        sid = payload["sid"]
        limit = payload.get("o")
        budget_ms = payload.get("budget_ms")
        rung_label = payload.get("rung")
        if budget_ms is None and rung_label is None:
            # pre-anytime shape: serve the stored step recommendations
            with self.registry.acquire(sid) as managed:
                return 200, {
                    "session_id": sid,
                    "recommendations": self._stored(managed, limit),
                }
        rung = (
            QualityRung.from_label(rung_label)
            if rung_label is not None
            else QualityRung.FULL
        )
        plan = self.ladder.plan(rung)
        with self.registry.acquire(sid) as managed:
            if plan.use_cached:
                quality: dict[str, Any] = {
                    "rung": rung.label,
                    "complete": False,
                    "stale": True,
                }
                partial = True
                recommendations = self._stored(managed, limit)
            else:
                result = managed.session.recommendations_anytime(
                    budget=budget_deadline(budget_ms),
                    o=limit,
                    plan=plan,
                    force_cut_after=payload.get("force_cut_after"),
                )
                quality = result.completeness.to_json()
                partial = result.is_partial
                recommendations = self._numbered(result)
        refinement: dict[str, Any] | None = None
        if partial:
            token = uuid.uuid4().hex
            self.refinements.submit(token, lambda: self._refine_job(sid))
            refinement = {
                "token": token,
                "href": f"/sessions/{sid}/recommendations/refine/{token}",
            }
        if budget_ms is not None:
            quality["budget_ms"] = budget_ms
        return 200, {
            "session_id": sid,
            "degraded": partial or rung is not QualityRung.FULL,
            "quality": quality,
            "refinement": refinement,
            "recommendations": recommendations,
        }

    def _refine_job(self, sid: str) -> dict[str, Any]:
        """Full-quality recompute backing one refinement token.

        Runs on a refinement-store thread with no ambient deadline or
        pressure, so the answer it produces is the unbudgeted full-rung
        result — exactly what the budget-cut request could not wait for.
        """
        with self.registry.acquire(sid) as managed:
            result = managed.session.recommendations_anytime()
            return {
                "quality": result.completeness.to_json(),
                "recommendations": self._numbered(result),
            }

    def refine(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        """Poll one refinement token (``refinement_lost`` → typed 410)."""
        return 200, {
            "session_id": payload["sid"],
            **self.refinements.poll(payload["token"]),
        }

    def apply(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        sid = payload["sid"]
        body = payload.get("body") or {}
        directives = [
            k
            for k in ("recommendation", "add", "drop", "sql", "criteria")
            if k in body
        ]
        if len(directives) > 1:
            raise ProtocolError(
                "apply body must contain exactly one of 'recommendation', "
                f"'add', 'drop', 'sql' or 'criteria', got {directives}",
                "invalid_edit",
            )
        with self.registry.acquire(sid) as managed:
            if "recommendation" in body:
                number = body["recommendation"]
                scored = managed.latest.recommendations if managed.latest else ()
                if (
                    not isinstance(number, int)
                    or isinstance(number, bool)
                    or not 1 <= number <= len(scored)
                ):
                    raise ProtocolError(
                        f"invalid recommendation number {number!r} "
                        f"(the current step offers 1..{len(scored)})",
                        "invalid_recommendation",
                    )
                record = managed.session.step(
                    scored[number - 1].operation, with_recommendations=True
                )
            else:
                criteria = apply_edit(managed.session.criteria, body)
                record = managed.session.apply_criteria(
                    criteria, with_recommendations=True
                )
            managed.latest = record
            self._save_checkpoint(managed)
            return 200, {
                "session_id": sid,
                "degraded": record.degraded,
                "step": step_to_json(record),
            }

    def history(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        sid = payload["sid"]
        with self.registry.acquire(sid) as managed:
            path = ExplorationPath(
                ExplorationMode.USER_DRIVEN, managed.session.steps
            )
            log = ExplorationLog.from_path(
                path,
                dataset=managed.dataset,
                metadata={"session_id": sid},
            )
            return 200, log.to_dict()


_SESSION_ID = r"(?P<sid>[0-9a-f]{32})"
#: method, pattern, handler, metrics label, shed priority
_ROUTES: list[tuple[str, re.Pattern, str, str, Priority]] = [
    ("GET", re.compile(r"^/health$"), "handle_health", "GET /health",
     Priority.CRITICAL),
    ("GET", re.compile(r"^/metrics$"), "handle_metrics", "GET /metrics",
     Priority.CRITICAL),
    ("GET", re.compile(r"^/slo$"), "handle_slo", "GET /slo",
     Priority.CRITICAL),
    ("GET", re.compile(r"^/debug/traces$"), "handle_debug_traces",
     "GET /debug/traces", Priority.CRITICAL),
    (
        "GET",
        re.compile(r"^/debug/traces/(?P<trace_id>[0-9a-fA-F-]{8,64})$"),
        "handle_debug_trace",
        "GET /debug/traces/{id}",
        Priority.CRITICAL,
    ),
    ("GET", re.compile(r"^/debug/profile$"), "handle_debug_profile",
     "GET /debug/profile", Priority.CRITICAL),
    ("GET", re.compile(r"^/debug/spans/summary$"), "handle_debug_spans",
     "GET /debug/spans/summary", Priority.CRITICAL),
    ("GET", re.compile(r"^/cluster/workers$"), "handle_cluster_workers",
     "GET /cluster/workers", Priority.CRITICAL),
    ("POST", re.compile(r"^/cluster/maps$"), "handle_cluster_maps",
     "POST /cluster/maps", Priority.HEAVY),
    ("POST", re.compile(r"^/sessions$"), "handle_create", "POST /sessions",
     Priority.HEAVY),
    ("GET", re.compile(r"^/sessions$"), "handle_list", "GET /sessions",
     Priority.NORMAL),
    (
        "GET",
        re.compile(rf"^/sessions/{_SESSION_ID}$"),
        "handle_summary",
        "GET /sessions/{id}",
        Priority.NORMAL,
    ),
    (
        "DELETE",
        re.compile(rf"^/sessions/{_SESSION_ID}$"),
        "handle_close",
        "DELETE /sessions/{id}",
        Priority.CRITICAL,  # closing frees capacity: never shed it
    ),
    (
        "GET",
        re.compile(rf"^/sessions/{_SESSION_ID}/maps$"),
        "handle_maps",
        "GET /sessions/{id}/maps",
        Priority.NORMAL,
    ),
    (
        "GET",
        re.compile(rf"^/sessions/{_SESSION_ID}/recommendations$"),
        "handle_recommendations",
        "GET /sessions/{id}/recommendations",
        Priority.NORMAL,
    ),
    (
        "GET",
        re.compile(
            rf"^/sessions/{_SESSION_ID}/recommendations/refine/"
            r"(?P<token>[0-9a-f]{32})$"
        ),
        "handle_refine",
        "GET /sessions/{id}/recommendations/refine/{token}",
        Priority.NORMAL,
    ),
    (
        "POST",
        re.compile(rf"^/sessions/{_SESSION_ID}/apply$"),
        "handle_apply",
        "POST /sessions/{id}/apply",
        Priority.HEAVY,
    ),
    (
        "GET",
        re.compile(rf"^/sessions/{_SESSION_ID}/history$"),
        "handle_history",
        "GET /sessions/{id}/history",
        Priority.NORMAL,
    ),
]


def _classify_payload(
    status: int, payload: Any
) -> tuple[bool, bool, str | None]:
    """(shed, degraded, rung) of one finished response envelope."""
    shed = False
    degraded = False
    rung = None
    if isinstance(payload, dict):
        error = payload.get("error")
        shed = (
            status == 503
            and isinstance(error, dict)
            and error.get("code") == "overloaded"
        )
        degraded = bool(payload.get("degraded"))
        quality = payload.get("quality")
        if isinstance(quality, dict):
            rung = quality.get("rung")
    return shed, degraded, rung


class _PayloadTooLarge(ReproError):
    """Request body exceeds the configured limit (HTTP 413)."""


# codes for the errors the stdlib raises before a request reaches a route
_WIRE_ERROR_CODES = {
    400: "malformed_request",
    414: "uri_too_long",
    431: "headers_too_large",
    501: "method_not_implemented",
    505: "http_version_not_supported",
}
# statuses whose responses carry no body (RFC 7230 §3.3, RFC 7231 §6.3.6)
_BODYLESS_STATUSES = (204, 205, 304)


class SubDExRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to handler methods; owns nothing but the wire."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: a small response never waits
    # out the client's delayed ACK behind Nagle's algorithm
    disable_nagle_algorithm = True
    server: "SubDExServer"  # narrowed for type checkers

    # -- plumbing -----------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # per-request accounting lives in /metrics; the raw HTTP line is
        # still available at DEBUG for wire-level troubleshooting
        _http_log.debug("%s - %s", self.address_string(), format % args)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        path = urlsplit(self.path).path
        label = None
        allowed: list[str] = []
        handler_name = None
        priority = Priority.NORMAL
        params: dict[str, str] = {}
        for route_method, pattern, name, route_label, route_priority in _ROUTES:
            match = pattern.match(path)
            if not match:
                continue
            if route_method == method:
                handler_name = name
                label = route_label
                priority = route_priority
                params = match.groupdict()
                break
            allowed.append(route_method)

        started = time.perf_counter()
        headers: dict[str, str] = {}
        trace_id: str | None = None
        shed = False
        degraded = False
        rung = None
        if handler_name is None:
            if allowed:
                label = f"{method} {path}"
                status, payload = 405, error_payload(
                    "method_not_allowed",
                    f"{method} not allowed here (allowed: {', '.join(allowed)})",
                )
            else:
                label = "<unmatched>"
                status, payload = 404, error_payload(
                    "not_found", f"no such endpoint: {method} {path}"
                )
        else:
            with self.server.tracer.span(
                "request",
                trace_id=self._incoming_trace_id(),
                method=method,
                route=label or path,
            ) as root:
                status, payload, headers = self._run_admitted(
                    handler_name, priority, params
                )
                shed, degraded, rung = _classify_payload(status, payload)
                trace_id = getattr(root, "trace_id", None)
                if trace_id is not None:
                    # outcome attributes set while the root is open: the
                    # tail sampler reads them off the finished root span
                    root.set(status=status)
                    if shed:
                        root.set(shed=True)
                    if degraded:
                        root.set(degraded=True)
                    headers = {**headers, "X-Trace-Id": trace_id}
                    if self._debug_requested() and isinstance(payload, dict):
                        # taken while the root span is still open: its
                        # duration reports elapsed-so-far, the handler's
                        # child spans are final
                        payload["debug"] = current_trace_partial()
        elapsed = time.perf_counter() - started
        headers = {**headers, "X-Server-Ms": f"{elapsed * 1000.0:.3f}"}
        # record before sending so a client that has the response in hand
        # is guaranteed to see its own request on a follow-up /metrics read
        self.server.metrics.observe(label or "<unmatched>", status, elapsed)
        slo = self.server.slo
        if slo is not None:
            slo.ingest(
                label or "<unmatched>",
                status,
                elapsed,
                shed=shed,
                degraded=degraded,
                rung=rung,
                trace_id=trace_id,
            )
        self._send(status, payload, headers)

    def _incoming_trace_id(self) -> str | None:
        """A client-supplied ``X-Trace-Id``, if well-formed (else ignored)."""
        raw = self.headers.get("X-Trace-Id")
        if raw is not None and _TRACE_ID_RE.match(raw):
            return raw
        return None

    def _debug_requested(self) -> bool:
        values = self._query().get("debug")
        return bool(values) and values[-1].lower() in ("1", "true", "yes")

    def _drop_unread_body(self) -> None:
        """Close the connection if the handler never consumed the body.

        Early-exit paths (shedding, injected faults, bad deadline headers)
        answer before reading the request body; leaving those bytes on a
        keep-alive connection would desync the next request.
        """
        if self.headers.get("Content-Length") not in (None, "0"):
            self.close_connection = True

    def _deadline(self) -> Deadline | None:
        """The request's time budget: header first, server default second."""
        raw = self.headers.get("X-Deadline-Ms")
        if raw is None:
            default = self.server.config.default_deadline_ms
            return Deadline(default / 1000.0) if default else None
        try:
            millis = int(raw)
        except ValueError:
            raise ProtocolError(
                f"invalid X-Deadline-Ms header: {raw!r}", "invalid_deadline"
            ) from None
        if millis < 1:
            raise ProtocolError(
                f"X-Deadline-Ms must be >= 1, got {millis}", "invalid_deadline"
            )
        return Deadline(millis / 1000.0)

    def _run_admitted(
        self, handler_name: str, priority: Priority, params: dict[str, str]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Admission gate + deadline scope around one handler call."""
        server = self.server
        try:
            deadline = self._deadline()
        except ProtocolError as error:
            self._drop_unread_body()
            return 400, error_payload(error.code, str(error)), {}
        # anytime recommendation reads can always answer from the quality
        # ladder's cached rung at near-zero cost, so past the hard limit
        # they degrade instead of being shed with 503
        degradable = (
            handler_name == "handle_recommendations"
            and server.config.anytime_enabled
        )
        try:
            with server.gate.admit(priority, degradable=degradable) as degraded:
                if degraded:
                    server.metrics.record_event("pressure_admissions")
                with deadline_scope(deadline):
                    if server.fault_plan is not None:
                        try:
                            server.fault_plan.check("handler")
                        except InjectedFault as error:
                            server.metrics.record_event("injected_faults")
                            self._drop_unread_body()
                            return (
                                500,
                                error_payload(
                                    "injected_fault", str(error), retryable=True
                                ),
                                {},
                            )
                    return self._run(handler_name, params)
        except OverloadedError as error:
            server.metrics.record_event("shed_requests")
            self._drop_unread_body()
            return (
                503,
                error_payload(
                    "overloaded",
                    str(error),
                    retryable=True,
                    retry_after=error.retry_after,
                ),
                {"Retry-After": f"{max(1, round(error.retry_after))}"},
            )

    def _run(
        self, handler_name: str, params: dict[str, str]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        headers: dict[str, str] = {}
        try:
            result = getattr(self, handler_name)(**params)
            if len(result) == 3:  # (status, payload, extra headers)
                status, payload, handler_headers = result
                headers.update(handler_headers)
            else:
                status, payload = result
        except Exception as error:  # noqa: BLE001 - mapped to envelopes
            status, payload = self._error_envelope(error)
            if isinstance(error, DatasetLoadError):
                headers["Retry-After"] = "1"  # no countdown for the body
        if isinstance(payload, dict):
            if payload.get("degraded"):
                self.server.metrics.record_event("degraded_responses")
            # error envelopes carry retry_after in the body (worker replies
            # included); surface it as the Retry-After header
            error_body = payload.get("error")
            if isinstance(error_body, dict) and "retry_after" in error_body:
                headers["Retry-After"] = (
                    f"{max(1, round(error_body['retry_after']))}"
                )
        return status, payload, headers

    def _error_envelope(self, error: Exception) -> tuple[int, dict[str, Any]]:
        """The front's own failures first, then the shared session map."""
        metrics = self.server.metrics
        if isinstance(error, _PayloadTooLarge):
            self.close_connection = True  # unread body still on the wire
            return 413, error_payload("payload_too_large", str(error))
        if isinstance(error, BreakerOpenError):
            return 503, error_payload(
                "dataset_unavailable",
                str(error),
                retryable=True,
                retry_after=error.retry_after,
            )
        if isinstance(error, DatasetLoadError):
            return 503, error_payload(
                "dataset_unavailable", str(error), retryable=True
            )
        if isinstance(error, InjectedFault):
            metrics.record_event("injected_faults")
            return 500, error_payload(
                "injected_fault", str(error), retryable=True
            )
        if isinstance(error, cluster_supervisor.WorkerUnavailableError):
            metrics.record_event("worker_unavailable")
            return 503, error_payload(
                "worker_unavailable",
                str(error),
                retryable=True,
                retry_after=error.retry_after,
            )
        if isinstance(error, DeadlineExceeded):
            metrics.record_event("deadline_exceeded")
        elif isinstance(error, RefinementLostError):
            metrics.record_event("refinements_lost")
        return error_envelope(error)

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Stdlib-raised errors as the typed JSON envelope, not an HTML page.

        The stdlib calls this for a malformed request line (400), an
        oversized URI (414) or header block (431), an unsupported HTTP
        version (505) and methods without a ``do_*`` handler (501).  Its
        semantics stay: the connection closes, and ``HEAD`` or a bodyless
        status gets headers only.
        """
        if message is None:
            message = self.responses.get(code, ("",))[0]
        self.log_error("code %d, message %s", code, message)
        if self.command is None and self.request_version == "HTTP/0.9":
            # the request line never parsed, so there is no client version
            # to honour: answer with a status line rather than a bare body
            self.request_version = self.protocol_version
        self._send(
            code,
            error_payload(_WIRE_ERROR_CODES.get(code, f"http_{code}"), message),
            {"Connection": "close"},
        )

    def _send(
        self,
        status: int,
        payload: dict[str, Any] | str,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        """Write the status line, headers and body with one socket send."""
        if isinstance(payload, str):  # Prometheus text exposition
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        remaining = dict(headers or {})
        content_type = remaining.pop("Content-Type", content_type)
        self.send_response(status)
        if status < 200 or status in _BODYLESS_STATUSES:
            body = b""
        else:
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
        for name, value in remaining.items():
            self.send_header(name, value)
        if self.command == "HEAD":
            body = b""
        if self.request_version == "HTTP/0.9":  # no status line or headers
            self.wfile.write(body)
            return
        # end_headers() would flush the head on its own and leave the body
        # for a second small segment; one buffer leaves as one send
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _json_body(self) -> dict[str, Any]:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header) if length_header is not None else 0
        except ValueError:
            raise ProtocolError(
                f"invalid Content-Length: {length_header!r}", "invalid_request"
            ) from None
        limit = self.server.config.max_body_bytes
        if length > limit:
            raise _PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit"
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ProtocolError(
                f"request body is not valid JSON: {error}", "invalid_json"
            ) from None
        if not isinstance(body, dict):
            raise ProtocolError(
                "request body must be a JSON object", "invalid_json"
            )
        return body

    def _query(self) -> dict[str, list[str]]:
        return parse_qs(urlsplit(self.path).query)

    # -- session ops --------------------------------------------------------
    def _session_op(
        self, op: str, payload: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """Run a session op on the local service or its owning worker.

        In cluster mode the op routes by ``payload["sid"]`` to the
        ring-owning worker, which runs the same :class:`SessionService`
        and answers an :func:`error_envelope` for a failed op.  Transport
        failures and open worker breakers surface as
        :class:`~repro.cluster.supervisor.WorkerUnavailableError` — a
        retryable 503 with ``Retry-After`` — instead of hanging the
        caller on a dead worker.
        """
        cluster = self.server.cluster
        if cluster is None:
            return self.server.sessions.run(op, payload)
        worker = cluster.route(payload["sid"])
        try:
            return cluster.call(worker, op, payload)
        except BreakerOpenError as error:
            raise cluster_supervisor.WorkerUnavailableError(
                worker, str(error), error.retry_after
            ) from error

    # -- service endpoints ---------------------------------------------------
    def handle_health(self) -> tuple[int, dict[str, Any]]:
        payload: dict[str, Any] = {
            "status": "ok",
            "datasets": list(self.server.pool.names),
            "sessions": self.server.registry.live_count,
            "inflight": self.server.gate.inflight,
        }
        cluster = self.server.cluster
        if cluster is not None:
            states = cluster.worker_states()
            payload["cluster"] = {
                "workers": len(states),
                "up": sum(
                    1 for s in states if s["alive"] and s["state"] == "up"
                ),
                "restarts": sum(s["restarts"] for s in states),
            }
        return 200, payload

    def handle_metrics(self) -> tuple[int, dict[str, Any] | str]:
        fmt = self._query().get("format", ["json"])[-1]
        if fmt in ("prometheus", "openmetrics"):
            # both serve the exemplar-bearing OpenMetrics rendering (a
            # superset of the classic text format: exemplars after
            # _bucket values, "# EOF" terminator); "openmetrics" also
            # negotiates the proper content type
            text = self.server.metrics.registry.render_openmetrics()
            if fmt == "openmetrics":
                return 200, text, {
                    "Content-Type": (
                        "application/openmetrics-text; "
                        "version=1.0.0; charset=utf-8"
                    )
                }
            return 200, text
        if fmt != "json":
            raise ProtocolError(
                f"unknown metrics format {fmt!r} "
                "(supported: json, prometheus, openmetrics)",
                "invalid_request",
            )
        payload = self.server.metrics.snapshot(
            sessions=self.server.registry.counters(),
            caches=self.server.pool.cache_snapshots(),
            resilience=self.server.resilience_snapshot(),
        )
        payload["process"] = self.server.process_collector.snapshot()
        if self.server.cluster is not None:
            payload["cluster"] = {
                "workers": self.server.cluster.worker_states()
            }
        return 200, payload

    def handle_slo(self) -> tuple[int, dict[str, Any]]:
        """The SLO scorecard: attainment, budgets, burn rates per class.

        In cluster mode the front's own tracker (which sees every HTTP
        request) stays the primary scorecard; the per-worker op windows
        are scraped best-effort and merged by addition into a ``fleet``
        aggregate so per-worker skew is visible from one endpoint.
        """
        slo = self.server.slo
        if slo is None:
            return 200, {"enabled": False}
        payload = slo.scorecard()
        payload["enabled"] = True
        cluster = self.server.cluster
        if cluster is not None:
            worker_totals = cluster.slo_totals()
            reachable = {
                index: totals
                for index, totals in worker_totals.items()
                if totals is not None
            }
            payload["cluster"] = {
                "workers": sorted(reachable),
                "unreachable": sorted(
                    set(worker_totals) - set(reachable)
                ),
                "fleet": scorecard_from_totals(
                    slo.config,
                    merge_worker_totals(reachable.values()),
                ),
            }
        return 200, payload

    def handle_debug_traces(self) -> tuple[int, dict[str, Any]]:
        query = self._query()
        min_ms = 0.0
        limit: int | None = None
        if "min_ms" in query:
            try:
                min_ms = float(query["min_ms"][-1])
            except ValueError:
                raise ProtocolError(
                    f"query parameter min_ms must be a number, "
                    f"got {query['min_ms'][-1]!r}",
                    "invalid_request",
                ) from None
        if "limit" in query:
            try:
                limit = int(query["limit"][-1])
            except ValueError:
                raise ProtocolError(
                    f"query parameter limit must be an integer, "
                    f"got {query['limit'][-1]!r}",
                    "invalid_request",
                ) from None
            if limit < 1:
                raise ProtocolError(
                    f"query parameter limit must be >= 1, got {limit}",
                    "invalid_request",
                )
        op = query.get("op", [None])[-1]
        dataset = query.get("dataset", [None])[-1]
        status = query.get("status", [None])[-1]
        if status is not None and status not in ("ok", "error") and not (
            status.isdigit() and len(status) == 3
        ):
            raise ProtocolError(
                f"query parameter status must be 'ok', 'error' or a "
                f"3-digit HTTP status, got {status!r}",
                "invalid_request",
            )
        traces = self.server.collector.search(
            op=op, dataset=dataset, min_ms=min_ms, status=status, limit=limit
        )
        return 200, {
            "tracing_enabled": self.server.tracer.enabled,
            "total_recorded": self.server.trace_buffer.total_recorded,
            "returned": len(traces),
            "sampling": self.server.collector.counters(),
            "traces": traces,
        }

    def handle_debug_trace(
        self, trace_id: str
    ) -> tuple[int, dict[str, Any]]:
        """One fleet-assembled trace: front + worker spans, stitched."""
        record = self.server.collector.get(trace_id)
        if record is None:
            return 404, error_payload(
                "unknown_trace",
                f"no collected trace {trace_id!r} "
                "(it may have been sampled out or evicted)",
            )
        return 200, record

    def handle_debug_profile(self) -> tuple[int, dict[str, Any] | str]:
        """Sample every thread's stack for a window; render the result.

        The handler thread sleeps through the window (and is sampled doing
        so); the profiler thread watches the rest of the process, so the
        profile covers all concurrent request handling.  One profile at a
        time — a second request while one is running gets 409 rather than
        doubling the sampling overhead.
        """
        query = self._query()
        seconds = 1.0
        if "seconds" in query:
            try:
                seconds = float(query["seconds"][-1])
            except ValueError:
                raise ProtocolError(
                    f"query parameter seconds must be a number, "
                    f"got {query['seconds'][-1]!r}",
                    "invalid_request",
                ) from None
        limit = self.server.config.profile_max_seconds
        if not 0.0 < seconds <= limit:
            raise ProtocolError(
                f"query parameter seconds must be in (0, {limit:g}], "
                f"got {seconds:g}",
                "invalid_request",
            )
        interval = 0.005
        if "interval_ms" in query:
            try:
                interval = float(query["interval_ms"][-1]) / 1000.0
            except ValueError:
                raise ProtocolError(
                    f"query parameter interval_ms must be a number, "
                    f"got {query['interval_ms'][-1]!r}",
                    "invalid_request",
                ) from None
        fmt = query.get("format", ["collapsed"])[-1]
        if fmt not in ("collapsed", "json"):
            raise ProtocolError(
                f"unknown profile format {fmt!r} "
                "(supported: collapsed, json)",
                "invalid_request",
            )
        if not self.server.profile_lock.acquire(blocking=False):
            return 409, error_payload(
                "profile_in_progress",
                "another profile is being taken; retry when it finishes",
                retryable=True,
            )
        try:
            try:
                profiler = SamplingProfiler(interval=interval)
            except ValueError as error:
                raise ProtocolError(str(error), "invalid_request") from None
            profiler.start()
            try:
                time.sleep(seconds)
            finally:
                profile = profiler.stop()
        finally:
            self.server.profile_lock.release()
        if fmt == "collapsed":
            return 200, profile.render_collapsed()
        return 200, profile.to_dict()

    def handle_debug_spans(self) -> tuple[int, dict[str, Any]]:
        """Span cost accounting: the aggregate per-operation cost table."""
        query = self._query()
        limit: int | None = None
        if "limit" in query:
            try:
                limit = int(query["limit"][-1])
            except ValueError:
                raise ProtocolError(
                    f"query parameter limit must be an integer, "
                    f"got {query['limit'][-1]!r}",
                    "invalid_request",
                ) from None
            if limit < 1:
                raise ProtocolError(
                    f"query parameter limit must be >= 1, got {limit}",
                    "invalid_request",
                )
        payload = self.server.span_stats.summary(limit=limit)
        payload["tracing_enabled"] = self.server.tracer.enabled
        if self.server.cluster is not None:
            # per-worker span accounting, scraped over IPC; an unreachable
            # worker reports {"unreachable": true} instead of blocking
            payload["workers"] = {
                index: stats.get("spans", stats)
                for index, stats in self.server.cluster.stats(
                    limit=limit
                ).items()
            }
        return 200, payload

    # -- cluster endpoints ----------------------------------------------------
    def handle_cluster_workers(self) -> tuple[int, dict[str, Any]]:
        cluster = self.server.cluster
        if cluster is None:
            return 200, {"enabled": False, "workers": []}
        return 200, {
            "enabled": True,
            "n_workers": cluster.n_workers,
            "workers": cluster.worker_states(),
        }

    def handle_cluster_maps(self) -> tuple[int, dict[str, Any]]:
        """One stateless exact scan (no session involved).

        The ``maps.scan`` op runs on the local service with 0 workers and
        on one round-robin worker otherwise; both run the same
        :meth:`SessionService.scan`, so the maps bytes match.
        """
        payload = {"body": self._json_body()}
        cluster = self.server.cluster
        if cluster is None:
            return self.server.sessions.run("maps.scan", payload)
        return cluster.scatter_scan(payload)

    # -- sessions -------------------------------------------------------------
    def handle_create(self) -> tuple[int, dict[str, Any]]:
        body = self._json_body()
        if self.server.cluster is not None:
            # the front picks the id so it can route before the session
            # exists; the owning worker creates the session under it
            return self._session_op(
                "session.create", {"sid": uuid.uuid4().hex, "body": body}
            )
        return self._session_op("session.create", {"body": body})

    def handle_list(self) -> tuple[int, dict[str, Any]]:
        if self.server.cluster is not None:
            return 200, {"sessions": self.server.cluster.live_sessions()}
        return self._session_op("sessions.list", {})

    def handle_summary(self, sid: str) -> tuple[int, dict[str, Any]]:
        return self._session_op("session.summary", {"sid": sid})

    def handle_close(self, sid: str) -> tuple[int, dict[str, Any]]:
        return self._session_op("session.close", {"sid": sid})

    def handle_maps(self, sid: str) -> tuple[int, dict[str, Any]]:
        return self._session_op("session.maps", {"sid": sid})

    def handle_recommendations(self, sid: str) -> tuple[int, dict[str, Any]]:
        query = self._query()
        limit: int | None = None
        if "o" in query:
            try:
                limit = int(query["o"][0])
            except ValueError:
                raise ProtocolError(
                    f"query parameter o must be an integer, "
                    f"got {query['o'][0]!r}",
                    "invalid_request",
                ) from None
            if limit < 1:
                raise ProtocolError(
                    f"query parameter o must be >= 1, got {limit}",
                    "invalid_request",
                )
        budget_ms: int | None = None
        if "budget_ms" in query:
            try:
                budget_ms = parse_budget_ms(query["budget_ms"][0])
            except ValueError as error:
                raise ProtocolError(str(error), "invalid_request") from None
        server = self.server
        # the anytime path engages only when asked for (a budget) or
        # needed (admitted under pressure / past the hard limit); a
        # budget-less request on an unloaded server takes the exact
        # pre-anytime path
        engaged = server.config.anytime_enabled and (
            budget_ms is not None or under_pressure()
        )
        if not engaged:
            return self._session_op(
                "session.recommendations", {"sid": sid, "o": limit}
            )
        # the front owns the load signals, so it picks the rung (and any
        # chaos budget cut); the session owner runs the plan
        started = time.perf_counter()
        rung = server.anytime.select_rung()
        force_cut: int | None = None
        if server.fault_plan is not None:
            force_cut = server.fault_plan.budget_cut("anytime.recommend")
        status, payload = self._session_op(
            "session.recommendations",
            {
                "sid": sid,
                "o": limit,
                "budget_ms": budget_ms,
                "rung": rung.label,
                "force_cut_after": force_cut,
            },
        )
        if status == 200:
            quality = payload["quality"]
            server.anytime.observe_latency(time.perf_counter() - started)
            server.anytime.record(
                rung,
                partial=not quality["complete"],
                snapshots=int(quality.get("snapshots", 0)),
                forced_cut=force_cut is not None
                and bool(quality.get("budget_cut")),
            )
        return status, payload

    def handle_refine(self, sid: str, token: str) -> tuple[int, dict[str, Any]]:
        return self._session_op("session.refine", {"sid": sid, "token": token})

    def handle_apply(self, sid: str) -> tuple[int, dict[str, Any]]:
        body = self._json_body()
        return self._session_op("session.apply", {"sid": sid, "body": body})

    def handle_history(self, sid: str) -> tuple[int, dict[str, Any]]:
        return self._session_op("session.history", {"sid": sid})


class SubDExServer(ThreadingHTTPServer):
    """One serving process: pool + registry + gate + metrics behind HTTP."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        pool: EnginePool,
        config: ServerConfig | None = None,
        fault_plan: FaultPlan | None = None,
        cluster: cluster_supervisor.WorkerPool | None = None,
    ) -> None:
        super().__init__(address, SubDExRequestHandler)
        self.config = config or ServerConfig()
        self.pool = pool
        self.fault_plan = fault_plan
        #: cluster mode: a started :class:`~repro.cluster.supervisor.WorkerPool`;
        #: ``None`` means classic single-process serving
        self.cluster = cluster
        self.registry = SessionRegistry(
            max_sessions=self.config.max_sessions,
            ttl_seconds=self.config.session_ttl_seconds,
            fault_plan=fault_plan,
        )
        #: the session ops, run here with 0 workers (in cluster mode each
        #: worker runs its own and this one stays idle)
        self.sessions = SessionService(
            pool.get,
            pool.default_dataset,
            self.registry,
            checkpoint_store=(
                CheckpointStore(self.config.checkpoint_dir, fault_plan=fault_plan)
                if self.config.checkpoint_dir is not None
                else None
            ),
            checkpoint_interval_seconds=self.config.checkpoint_interval_seconds,
            refinements=RefinementStore(
                capacity=self.config.refinement_capacity,
                ttl_seconds=self.config.refinement_ttl_seconds,
            ),
        )
        self.metrics = ServerMetrics(
            reservoir_size=self.config.metrics_reservoir_size
        )
        self.metrics.registry.register_collector(self._collect_engine_metrics)
        #: SLO tracking: one ingest per finished request in _dispatch,
        #: scored at GET /slo and collected as subdex_slo_* families
        self.slo: SLOTracker | None = None
        if self.config.slo_enabled:
            self.slo = SLOTracker(
                load_slo_config(self.config.slo_config_path),
                on_event=self._on_slo_event,
            )
            self.metrics.registry.register_collector(self.slo.collect)
        if self.cluster is not None:
            self.metrics.registry.register_collector(
                self.cluster.metric_families
            )
        # a private tracer: concurrent servers in one process (tests run
        # several) must not deliver traces into each other's sinks
        self.tracer = Tracer(enabled=self.config.tracing_enabled)
        ring_bytes = int(self.config.trace_ring_mb * 1024 * 1024) or None
        self.trace_buffer = TraceRingBuffer(
            self.config.trace_buffer_size,
            max_bytes=ring_bytes,
            max_spans_per_trace=self.config.trace_max_spans,
        )
        self.tracer.add_sink(self.trace_buffer)
        #: fleet trace collection: tail-sampled, cross-worker-stitched
        #: traces behind GET /debug/traces[/<id>] — identical endpoints
        #: in 0-worker and N-worker deployments
        self.trace_sampler = TailSampler(
            sample_rate=self.config.trace_sample_rate,
            slow_ms=self.config.slow_request_ms,
        )
        self.collector = TraceCollector(
            sampler=self.trace_sampler,
            max_traces=self.config.trace_buffer_size,
            max_bytes=ring_bytes,
            max_spans_per_trace=self.config.trace_max_spans,
        )
        self.tracer.add_sink(self.collector)
        if self.cluster is not None:
            self.cluster.trace_sink = self.collector.add_fragment
            self.cluster.collect_traces = self.config.tracing_enabled
        self.trace_file_sink: JsonlTraceSink | None = None
        if self.config.trace_file is not None:
            self.trace_file_sink = JsonlTraceSink(
                self.config.trace_file,
                max_mb=self.config.trace_file_max_mb,
            )
            self.tracer.add_sink(self.trace_file_sink)
        self.slow_log: SlowTraceLog | None = None
        if self.config.slow_request_ms is not None:
            self.slow_log = SlowTraceLog(self.config.slow_request_ms, _log)
            self.tracer.add_sink(self.slow_log)
        # span cost accounting (GET /debug/spans/summary + registry
        # families) and process health gauges (RSS/GC/threads/uptime)
        self.span_stats = SpanStatsSink()
        self.tracer.add_sink(self.span_stats)
        self.metrics.registry.register_collector(self.span_stats.collect)
        self.process_collector = ProcessCollector()
        self.metrics.registry.register_collector(self.process_collector)
        #: serialises GET /debug/profile: one sampling run at a time
        self.profile_lock = threading.Lock()
        self.gate = AdmissionGate(
            hard_limit=self.config.max_inflight,
            soft_limit=self.config.soft_inflight,
            retry_after_seconds=self.config.shed_retry_after_seconds,
        )
        #: anytime recommendations: the degradation controller reads the
        #: gate / breakers live, the store tracks refinement jobs
        self.anytime = AnytimeController(
            gate=self.gate,
            latency_target_ms=self.config.anytime_latency_target_ms,
            breaker_states=self._breaker_states,
        )

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    # -- SLO events -----------------------------------------------------------
    def _on_slo_event(self, event: Mapping[str, Any]) -> None:
        """Count burn-rate state transitions into /metrics event counters.

        Also drives the tail sampler's burn windows: while any class is
        burning, every trace is kept so the incident is fully traced.
        """
        state = event.get("to", "unknown")
        self.metrics.record_event(f"slo_{state}")
        slo_class = str(event.get("class", ""))
        if state == "ok":
            self.trace_sampler.unpin_burn(slo_class)
        else:
            self.trace_sampler.pin_burn(slo_class)

    # -- anytime --------------------------------------------------------------
    def _breaker_states(self) -> list[str]:
        return [
            str(snapshot["state"])
            for snapshot in self.pool.breaker_snapshots().values()
        ]

    def restore_sessions(self) -> int:
        """Replay the checkpoint store into live sessions (before serving)."""
        restored, failed = self.sessions.restore()
        if failed:
            self.metrics.record_event("restore_failures", failed)
        if restored:
            self.metrics.record_event("sessions_restored", restored)
            _log.info("restored %d checkpointed session(s)", restored)
        return restored

    def start_background(self) -> None:
        """Start the periodic checkpoint flusher (no-op without one)."""
        if self.sessions.checkpointer is not None:
            self.sessions.checkpointer.start()

    # -- shutdown -------------------------------------------------------------
    def graceful_shutdown(self, drain_seconds: float | None = None) -> bool:
        """Stop accepting, drain in-flight work, flush checkpoints, close.

        Returns ``True`` if every in-flight request finished inside the
        drain budget.  Must be called from a thread other than the one
        running :meth:`serve_forever`.
        """
        budget = (
            self.config.drain_seconds if drain_seconds is None else drain_seconds
        )
        _log.info("graceful shutdown: draining for up to %.1fs", budget)
        self.shutdown()  # stop accepting new connections
        drained = self.gate.drain(budget)
        if not drained:
            _log.warning(
                "drain deadline hit after %.1fs; aborting in-flight requests",
                budget,
            )
        checkpointer = self.sessions.checkpointer
        if checkpointer is not None:
            checkpointer.stop()
            checkpointer.flush()  # one final checkpoint per live session
        if self.cluster is not None:
            # drain workers (each flushes its own checkpoints), join their
            # processes, unlink every shared-memory segment
            self.cluster.shutdown(drain_seconds=budget)
        if self.trace_file_sink is not None:
            self.trace_file_sink.close()
        self.server_close()
        _log.info("shutdown complete (drained=%s)", drained)
        return drained

    def resilience_snapshot(self) -> dict[str, Any]:
        snapshot: dict[str, Any] = {
            "gate": self.gate.counters(),
            "breakers": self.pool.breaker_snapshots(),
            "anytime": self.anytime.counters(),
            "refinements": self.sessions.refinements.counters(),
        }
        if self.sessions.checkpointer is not None:
            snapshot["checkpoints"] = self.sessions.checkpointer.counters()
        if self.fault_plan is not None:
            snapshot["faults"] = self.fault_plan.counters()
        return snapshot

    # -- metrics collection ---------------------------------------------------
    def _collect_engine_metrics(self) -> list[MetricFamily]:
        """Scrape-time families for layers that keep their own counters.

        Reading existing counters at scrape time (instead of double
        accounting on the hot paths) keeps instrumentation out of the
        engine's inner loops.
        """
        families: list[MetricFamily] = []

        sessions = MetricFamily(
            "subdex_sessions", "gauge", "Session registry state by kind."
        )
        for kind, value in self.registry.counters().items():
            sessions.add(value, kind=kind)
        families.append(sessions)

        gate = MetricFamily(
            "subdex_gate", "gauge", "Admission gate state by kind."
        )
        for kind, value in self.gate.counters().items():
            gate.add(value, kind=kind)
        families.append(gate)

        caches = MetricFamily(
            "subdex_cache_events_total",
            "counter",
            "Engine cache events by dataset, cache and kind.",
        )
        index_events = MetricFamily(
            "subdex_index_events_total",
            "counter",
            "Sufficient-statistic index events by dataset and kind.",
        )
        batch_events = MetricFamily(
            "subdex_batch_events_total",
            "counter",
            "Family-batched scoring events by dataset and kind.",
        )
        for dataset, snapshot in self.pool.cache_snapshots().items():
            for cache in ("group", "result"):
                for kind in ("hits", "misses", "evictions"):
                    caches.add(
                        snapshot[cache][kind],
                        dataset=dataset,
                        cache=cache,
                        kind=kind,
                    )
            caches.add(
                snapshot["stale_hits"],
                dataset=dataset, cache="result", kind="stale_hits",
            )
            caches.add(
                snapshot["flight_waits"],
                dataset=dataset, cache="result", kind="flight_waits",
            )
            index = snapshot.get("index")
            if index is not None:
                for kind in (
                    "cube_builds",
                    "candidates_cube",
                    "candidates_sibling",
                    "candidates_containment",
                    "candidates_delta",
                    "candidates_direct",
                ):
                    index_events.add(index[kind], dataset=dataset, kind=kind)
                postings = index["postings"]
                for kind in ("hits", "misses", "builds", "evictions"):
                    index_events.add(
                        postings[kind], dataset=dataset, kind=f"postings_{kind}"
                    )
            for kind, value in snapshot.get("batch", {}).items():
                batch_events.add(value, dataset=dataset, kind=kind)
        families.append(caches)
        families.append(index_events)
        families.append(batch_events)

        breaker_state = MetricFamily(
            "subdex_breaker_open",
            "gauge",
            "Circuit breaker state by dataset (0 closed, 0.5 half-open, 1 open).",
        )
        state_value = {"closed": 0.0, "half_open": 0.5, "open": 1.0}
        for dataset, snapshot in self.pool.breaker_snapshots().items():
            breaker_state.add(
                state_value.get(str(snapshot["state"]), 1.0), dataset=dataset
            )
        families.append(breaker_state)

        if self.sessions.checkpointer is not None:
            checkpoints = MetricFamily(
                "subdex_checkpoints_total",
                "counter",
                "Checkpoint events by kind.",
            )
            for kind, value in self.sessions.checkpointer.counters().items():
                checkpoints.add(value, kind=kind)
            families.append(checkpoints)

        anytime_counters = self.anytime.counters()
        anytime_requests = MetricFamily(
            "subdex_anytime_requests_total",
            "counter",
            "Anytime recommendation requests by quality rung.",
        )
        for label, value in sorted(
            dict(anytime_counters["rung_requests"]).items()  # type: ignore[call-overload]
        ):
            anytime_requests.add(value, rung=label)
        families.append(anytime_requests)

        anytime_events = MetricFamily(
            "subdex_anytime_events_total",
            "counter",
            "Anytime degradation events by kind.",
        )
        for kind in ("partials", "snapshots", "forced_cuts", "cache_serves"):
            anytime_events.add(float(anytime_counters[kind]), kind=kind)  # type: ignore[arg-type]
        families.append(anytime_events)

        ewma = anytime_counters["latency_ewma_ms"]
        if ewma is not None:
            anytime_latency = MetricFamily(
                "subdex_anytime_latency_ewma_ms",
                "gauge",
                "EWMA of recommendation latency feeding the ladder controller.",
            )
            anytime_latency.add(float(ewma))  # type: ignore[arg-type]
            families.append(anytime_latency)

        refinements = MetricFamily(
            "subdex_anytime_refinements_total",
            "counter",
            "Background refinement-job events by kind.",
        )
        for kind, value in self.sessions.refinements.counters().items():
            refinements.add(value, kind=kind)
        families.append(refinements)

        tracing = MetricFamily(
            "subdex_traces", "gauge", "Tracer and trace sink state by kind."
        )
        tracing.add(self.tracer.traces_recorded, kind="recorded")
        tracing.add(self.tracer.sink_errors, kind="sink_errors")
        tracing.add(self.trace_buffer.total_recorded, kind="buffered")
        if self.trace_file_sink is not None:
            tracing.add(self.trace_file_sink.traces_written, kind="written")
            tracing.add(self.trace_file_sink.rotations, kind="file_rotations")
        if self.slow_log is not None:
            tracing.add(self.slow_log.slow_traces, kind="slow")
            tracing.add(self.slow_log.suppressed_total, kind="slow_suppressed")
        collect_counters = self.collector.counters()
        for kind in (
            "kept",
            "dropped",
            "stored",
            "stored_bytes",
            "pending_fragments",
            "fragments_received",
            "fragments_unmatched",
            "truncated",
            "partial",
        ):
            tracing.add(float(collect_counters[kind]), kind=f"collect_{kind}")
        families.append(tracing)
        return families


def build_server(
    factories: Mapping[str, Callable[[], SubDEx]],
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServerConfig | None = None,
    fault_plan: FaultPlan | None = None,
) -> SubDExServer:
    """Create (but do not start) a server; ``port=0`` picks a free port.

    If the config names a checkpoint directory, previously checkpointed
    sessions are restored (replayed) before the server is returned, and
    the periodic flusher is started.
    """
    config = config or ServerConfig()
    pool = EnginePool(
        factories,
        group_capacity=config.group_cache_capacity,
        result_capacity=config.result_cache_capacity,
        breaker_failure_threshold=config.breaker_failure_threshold,
        breaker_reset_seconds=config.breaker_reset_seconds,
        fault_plan=fault_plan,
    )
    cluster: cluster_supervisor.WorkerPool | None = None
    if config.workers > 0:
        # cluster mode needs the datasets eagerly: they are exported into
        # shared memory once and every worker attaches zero-copy views
        datasets = {}
        for name, factory in factories.items():
            engine = factory()
            datasets[name] = (engine.database, engine.config)
        cluster = cluster_supervisor.WorkerPool(
            datasets,
            cluster_supervisor.ClusterConfig(
                workers=config.workers,
                heartbeat_interval_seconds=config.worker_heartbeat_seconds,
                rpc_timeout_seconds=config.worker_rpc_timeout_seconds,
                max_restarts=config.worker_max_restarts,
            ),
            max_sessions=config.max_sessions,
            session_ttl_seconds=config.session_ttl_seconds,
            group_cache_capacity=config.group_cache_capacity,
            result_cache_capacity=config.result_cache_capacity,
            checkpoint_dir=config.checkpoint_dir,
            checkpoint_interval_seconds=config.checkpoint_interval_seconds,
            tracing_enabled=config.tracing_enabled,
            slo_config=(
                load_slo_config(config.slo_config_path).to_json()
                if config.slo_enabled
                else None
            ),
            trace_max_spans=config.trace_max_spans,
        )
        cluster.start()
    server = SubDExServer(
        (host, port), pool, config, fault_plan=fault_plan, cluster=cluster
    )
    server.restore_sessions()
    server.start_background()
    return server


def serve(
    factories: Mapping[str, Callable[[], SubDEx]],
    host: str = "127.0.0.1",
    port: int = 8642,
    config: ServerConfig | None = None,
    out=None,
    install_signal_handlers: bool = True,
) -> int:
    """Run a server until interrupted (the ``python -m repro serve`` body).

    SIGTERM/SIGINT trigger a graceful shutdown: stop accepting, drain
    in-flight requests inside the configured drain budget, flush one final
    checkpoint per live session, exit 0.
    """
    import sys

    out = out or sys.stdout
    server = build_server(factories, host, port, config)
    _log.info(
        "serving datasets %s on %s", ", ".join(server.pool.names), server.url
    )
    print(f"SubDEx serving {', '.join(server.pool.names)} on {server.url}", file=out)
    if server.cluster is not None:
        print(
            f"cluster: {server.cluster.n_workers} workers "
            "(see docs/SCALING.md)",
            file=out,
        )
    print("endpoints: /health /metrics /sessions (see docs/API.md)", file=out)

    stop = threading.Event()
    if (
        install_signal_handlers
        and threading.current_thread() is threading.main_thread()
    ):

        def _request_stop(signum: int, frame: object) -> None:
            stop.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    worker = threading.Thread(
        target=server.serve_forever, name="subdex-serve", daemon=True
    )
    worker.start()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print("\ndraining in-flight requests", file=out)
    drained = server.graceful_shutdown()
    worker.join(5.0)
    print(
        "shutdown complete"
        + ("" if drained else " (drain deadline hit; some requests aborted)"),
        file=out,
    )
    return 0
