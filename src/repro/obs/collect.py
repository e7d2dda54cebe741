"""Fleet-wide trace collection: tail sampling, cross-process stitching, search.

A multi-process deployment traces every request on both sides of the
IPC boundary, but each process keeps its own ring buffer — the fleet's
traces are fragmented.  This module closes that gap in the front process:

* :class:`ThreadLocalTraceCapture` — a worker-side tracer sink that holds
  the finished trace of *this thread's* request just long enough for the
  IPC reply to carry it back to the front as a **fragment** (span dicts +
  worker/pid attribution);
* :class:`TailSampler` — the keep/drop decision, made at trace
  completion ("tail-based") when the outcome is known: error, shed,
  degraded, slow and SLO-burn-window traces are always kept, the
  unremarkable rest is sampled by a deterministic hash of the trace id;
* :class:`TraceCollector` — the front-side assembly point.  Fragments
  arrive (via :meth:`add_fragment`) *before* the front's root span
  closes and wait in a bounded pending buffer; when the tracer delivers
  the finished front trace, the worker span trees are re-parented under
  their matching ``worker.rpc`` spans (matched by the ``worker``
  attribute) and the stitched record is stored behind count **and** byte
  budgets.  A fragment that never arrives (a worker died mid-call) makes
  the stitched record ``partial: true`` instead of blocking anything —
  reassembly is clock-skew-tolerant because parenting is id-based; the
  wall-clock delta is merely *reported* as ``clock_skew_ms``.

``GET /debug/traces`` (search) and ``GET /debug/traces/<id>`` (full
tree) are served from the collector, so the endpoints behave identically
in 0-worker deployments — there are simply no fragments to wait for.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import OrderedDict
from typing import Any, Callable, Iterable, Mapping

from .tracing import Trace

__all__ = [
    "TailSampler",
    "ThreadLocalTraceCapture",
    "TraceCollector",
    "dict_span_tree",
    "fragment_from_trace",
]

#: Span attributes that mark a trace as always-keep for the tail sampler.
_KEEP_ATTRS = ("shed", "degraded")


def dict_span_tree(spans: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Nest flat span *dicts* into a ``{name, children}`` tree.

    The dict analogue of :func:`repro.obs.tracing.span_tree` for stitched
    cross-process spans (which only exist in ``to_dict`` form).  The root
    is the span without a parent among the given spans — ordering falls
    back to wall-clock ``started_at``, which is only used for sibling
    order, never for parenting, so clock skew cannot corrupt the tree.
    """
    ordered = sorted(spans, key=lambda s: s.get("started_at", 0.0))
    if not ordered:
        return {}
    nodes: dict[str, dict[str, Any]] = {}
    for s in ordered:
        nodes[s["span_id"]] = {
            "name": s.get("name"),
            "duration_ms": s.get("duration_ms"),
            "status": s.get("status", "ok"),
            "attributes": dict(s.get("attributes") or {}),
            "children": [],
        }
    ids = set(nodes)
    root = next(
        (s for s in ordered if s.get("parent_id") not in ids), ordered[0]
    )
    for s in ordered:
        if s["span_id"] == root["span_id"]:
            continue
        parent = nodes.get(s.get("parent_id") or "")
        if parent is None:
            parent = nodes[root["span_id"]]
        parent["children"].append(nodes[s["span_id"]])
    return nodes[root["span_id"]]


def fragment_from_trace(
    trace: Trace, worker: int, pid: int, max_spans: int | None = None
) -> dict[str, Any]:
    """One worker's shippable span-tree fragment of a finished trace.

    Spans are start-ordered (the worker root first), so truncating a
    pathological tree keeps the shallow structure and drops leaf detail.
    """
    spans = [s.to_dict() for s in trace.spans]
    truncated = False
    if max_spans is not None and len(spans) > max_spans:
        spans = spans[:max_spans]
        truncated = True
    return {
        "trace_id": trace.trace_id,
        "worker": worker,
        "pid": pid,
        "truncated": truncated,
        "spans": spans,
    }


class ThreadLocalTraceCapture:
    """A tracer sink that parks each thread's finished trace for pickup.

    The worker's request root span closes (delivering the trace to sinks
    on the handling thread) *before* the IPC reply dict is built, so the
    handler can :meth:`take` the trace and attach it to the reply.  Being
    thread-local, concurrent requests on different worker threads never
    see each other's traces.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self.captured = 0

    def __call__(self, trace: Trace) -> None:
        self._local.trace = trace
        self.captured += 1

    def take(self) -> Trace | None:
        """The current thread's last finished trace, consumed."""
        trace = getattr(self._local, "trace", None)
        self._local.trace = None
        return trace


class TailSampler:
    """Keep/drop decisions made at trace completion, outcome in hand.

    Always keep: any error span, shed or degraded requests, traces at or
    over ``slow_ms``, and every trace finishing while an SLO burn window
    is pinned (:meth:`pin_burn`).  Everything else is kept with
    probability ``sample_rate`` via a deterministic hash of the trace id,
    so the same request stream yields the same keep set on every run.
    """

    def __init__(
        self, sample_rate: float = 1.0, slow_ms: float | None = None
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        self.sample_rate = float(sample_rate)
        self.slow_ms = slow_ms
        self._lock = threading.Lock()
        self._burning: set[str] = set()
        self.kept = 0
        self.dropped = 0
        self.kept_by_reason: dict[str, int] = {}

    # -- SLO burn windows ----------------------------------------------------
    def pin_burn(self, slo_class: str) -> None:
        """An SLO class entered a burn state: keep everything until unpinned."""
        with self._lock:
            self._burning.add(slo_class)

    def unpin_burn(self, slo_class: str) -> None:
        with self._lock:
            self._burning.discard(slo_class)

    @property
    def burn_active(self) -> bool:
        with self._lock:
            return bool(self._burning)

    # -- the decision --------------------------------------------------------
    def reason_to_keep(
        self,
        trace_id: str,
        duration_ms: float,
        error: bool,
        attributes: Mapping[str, Any],
    ) -> str | None:
        """Why this trace is kept, or ``None`` to drop it."""
        if error:
            return "error"
        status = attributes.get("status")
        if isinstance(status, int) and status >= 500:
            return "error"
        for attr in _KEEP_ATTRS:
            if attributes.get(attr):
                return attr
        if self.slow_ms is not None and duration_ms >= self.slow_ms:
            return "slow"
        if self.burn_active:
            return "burn"
        if self.sample_rate >= 1.0:
            return "sampled"
        if self.sample_rate <= 0.0:
            return None
        # deterministic: crc32 of the id maps to [0, 1); independent of
        # arrival order, stable across processes and reruns
        score = zlib.crc32(trace_id.encode("utf-8", "replace")) / 2**32
        return "sampled" if score < self.sample_rate else None

    def record(self, reason: str | None) -> None:
        with self._lock:
            if reason is None:
                self.dropped += 1
            else:
                self.kept += 1
                self.kept_by_reason[reason] = (
                    self.kept_by_reason.get(reason, 0) + 1
                )

    def counters(self) -> dict[str, Any]:
        with self._lock:
            return {
                "kept": self.kept,
                "dropped": self.dropped,
                "sample_rate": self.sample_rate,
                "kept_by_reason": dict(self.kept_by_reason),
                "burning_classes": sorted(self._burning),
            }


class TraceCollector:
    """Stitch front + worker spans into searchable cross-process records.

    A plain tracer sink on the front tracer (finished front traces) plus
    :meth:`add_fragment` for worker fragments extracted from IPC replies.
    Thread-safe; every operation is lock-bounded dict work, no I/O.
    """

    def __init__(
        self,
        sampler: TailSampler | None = None,
        max_traces: int = 256,
        max_bytes: int | None = None,
        max_spans_per_trace: int | None = 512,
        pending_capacity: int = 128,
    ) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.sampler = sampler or TailSampler()
        self.max_traces = max_traces
        self.max_bytes = max_bytes
        self.max_spans_per_trace = max_spans_per_trace
        self.pending_capacity = pending_capacity
        self._lock = threading.Lock()
        #: trace id → stitched record, oldest first (eviction order)
        self._records: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._sizes: dict[str, int] = {}
        self._bytes = 0
        #: trace id → fragments that arrived before their front trace
        self._pending: OrderedDict[str, list[dict[str, Any]]] = OrderedDict()
        self.total_recorded = 0
        self.fragments_received = 0
        self.fragments_unmatched = 0
        self.fragments_evicted = 0
        self.traces_truncated = 0
        self.traces_partial = 0

    # -- ingestion -----------------------------------------------------------
    def add_fragment(self, fragment: Mapping[str, Any]) -> None:
        """Buffer one worker fragment until its front trace finishes.

        Called from the RPC path *before* the front root span closes; a
        fragment arriving after assembly (retried RPCs racing the root's
        close) merges into the stored record instead.
        """
        trace_id = fragment.get("trace_id")
        if not trace_id or not fragment.get("spans"):
            return
        frag = dict(fragment)
        with self._lock:
            self.fragments_received += 1
            record = self._records.get(trace_id)
            if record is not None:
                self._merge_fragments(record, [frag])
                self._resize(trace_id, record)
                return
            bucket = self._pending.get(trace_id)
            if bucket is None:
                while len(self._pending) >= self.pending_capacity:
                    self._pending.popitem(last=False)
                    self.fragments_evicted += 1
                bucket = self._pending[trace_id] = []
            bucket.append(frag)

    def __call__(self, trace: Trace) -> None:
        """Tracer sink: the front trace finished — decide, stitch, store."""
        with self._lock:
            fragments = self._pending.pop(trace.trace_id, [])
        error = any(s.status != "ok" for s in trace.spans) or any(
            s.get("status", "ok") != "ok"
            for frag in fragments
            for s in frag.get("spans", ())
        )
        reason = self.sampler.reason_to_keep(
            trace.trace_id,
            trace.duration_ms,
            error,
            trace.root.attributes,
        )
        self.sampler.record(reason)
        if reason is None:
            return
        record = self._assemble(trace, fragments, reason)
        with self._lock:
            self.total_recorded += 1
            if record["truncated"]:
                self.traces_truncated += 1
            if record["partial"]:
                self.traces_partial += 1
            previous = self._records.pop(trace.trace_id, None)
            if previous is not None:
                self._bytes -= self._sizes.pop(trace.trace_id, 0)
            self._records[trace.trace_id] = record
            self._sizes[trace.trace_id] = size = _approx_bytes(record)
            self._bytes += size
            self._evict()

    # -- assembly ------------------------------------------------------------
    def _assemble(
        self,
        trace: Trace,
        fragments: list[dict[str, Any]],
        reason: str,
    ) -> dict[str, Any]:
        spans = [s.to_dict() for s in trace.spans]
        truncated = False
        if (
            self.max_spans_per_trace is not None
            and len(spans) > self.max_spans_per_trace
        ):
            spans = spans[: self.max_spans_per_trace]
            truncated = True
        root = spans[0]
        record: dict[str, Any] = {
            "trace_id": trace.trace_id,
            "name": root["name"],
            "route": root["attributes"].get("route"),
            "started_at": root["started_at"],
            "duration_ms": root["duration_ms"],
            "status": root["status"],
            "sampled": reason,
            "partial": False,
            "truncated": truncated,
            "workers": [],
            "spans": spans,
        }
        self._merge_fragments(record, fragments)
        record["n_spans"] = len(record["spans"])
        return record

    def _merge_fragments(
        self, record: dict[str, Any], fragments: list[dict[str, Any]]
    ) -> None:
        """Re-parent fragment roots under their ``worker.rpc`` spans."""
        spans: list[dict[str, Any]] = record["spans"]
        front_root_id = spans[0]["span_id"]
        rpc_spans = [s for s in spans if s["name"] == "worker.rpc"]
        claimed = {
            w["rpc_span_id"]
            for w in record["workers"]
            if w.get("rpc_span_id")
        }
        for frag in fragments:
            frag_spans = [dict(s) for s in frag.get("spans", ())]
            if not frag_spans:
                continue
            frag_truncated = bool(frag.get("truncated"))
            if (
                self.max_spans_per_trace is not None
                and len(frag_spans) > self.max_spans_per_trace
            ):
                frag_spans = frag_spans[: self.max_spans_per_trace]
                frag_truncated = True
            worker = frag.get("worker")
            rpc = next(
                (
                    s
                    for s in rpc_spans
                    if s["span_id"] not in claimed
                    and s["attributes"].get("worker") == worker
                ),
                None,
            )
            frag_ids = {s["span_id"] for s in frag_spans}
            roots = [
                s
                for s in frag_spans
                if (s.get("parent_id") or "") not in frag_ids
            ]
            skew_ms: float | None = None
            if rpc is not None:
                claimed.add(rpc["span_id"])
                if roots:
                    skew_ms = (
                        roots[0]["started_at"] - rpc["started_at"]
                    ) * 1000.0
                for r in roots:
                    r["parent_id"] = rpc["span_id"]
            else:
                self.fragments_unmatched += 1
                for r in roots:
                    r["parent_id"] = front_root_id
                    r["attributes"]["fleet_unmatched"] = True
            for r in roots:
                r["attributes"].setdefault("worker", worker)
                if frag.get("pid") is not None:
                    r["attributes"]["pid"] = frag["pid"]
                if skew_ms is not None:
                    r["attributes"]["clock_skew_ms"] = skew_ms
            spans.extend(frag_spans)
            record["workers"].append(
                {
                    "worker": worker,
                    "pid": frag.get("pid"),
                    "n_spans": len(frag_spans),
                    "clock_skew_ms": skew_ms,
                    "matched": rpc is not None,
                    "rpc_span_id": rpc["span_id"] if rpc is not None else None,
                    "truncated": frag_truncated,
                }
            )
            if frag_truncated:
                record["truncated"] = True
        record["partial"] = len(claimed) < len(rpc_spans)
        record["n_spans"] = len(spans)

    def _resize(self, trace_id: str, record: dict[str, Any]) -> None:
        self._bytes -= self._sizes.get(trace_id, 0)
        self._sizes[trace_id] = size = _approx_bytes(record)
        self._bytes += size
        self._evict()

    def _evict(self) -> None:
        while len(self._records) > self.max_traces or (
            self.max_bytes is not None
            and self._bytes > self.max_bytes
            and len(self._records) > 1
        ):
            evicted_id, _ = self._records.popitem(last=False)
            self._bytes -= self._sizes.pop(evicted_id, 0)

    # -- read side -----------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def get(self, trace_id: str) -> dict[str, Any] | None:
        """The stitched record for ``trace_id`` plus its rendered tree."""
        with self._lock:
            record = self._records.get(trace_id)
            if record is None:
                return None
            record = json.loads(json.dumps(record, default=str))
        record["tree"] = dict_span_tree(record["spans"])
        return record

    def search(
        self,
        op: str | None = None,
        dataset: str | None = None,
        min_ms: float = 0.0,
        status: str | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Most-recent-first stitched records matching every given filter.

        ``op`` substring-matches the root's route label (or name);
        ``dataset`` matches any span's ``dataset`` attribute; ``status``
        is ``"ok"``/``"error"`` or a numeric HTTP status.
        """
        with self._lock:
            records = list(self._records.values())
        out: list[dict[str, Any]] = []
        for record in reversed(records):
            if record["duration_ms"] < min_ms:
                continue
            if op is not None:
                haystack = f"{record.get('route') or ''} {record['name']}"
                if op not in haystack:
                    continue
            if dataset is not None and not any(
                s["attributes"].get("dataset") == dataset
                for s in record["spans"]
            ):
                continue
            if status is not None and not _status_matches(record, status):
                continue
            out.append(json.loads(json.dumps(record, default=str)))
            if limit is not None and len(out) >= limit:
                break
        return out

    def counters(self) -> dict[str, Any]:
        with self._lock:
            stored = len(self._records)
            stored_bytes = self._bytes
            pending = len(self._pending)
        return {
            **self.sampler.counters(),
            "stored": stored,
            "stored_bytes": stored_bytes,
            "max_bytes": self.max_bytes,
            "pending_fragments": pending,
            "fragments_received": self.fragments_received,
            "fragments_unmatched": self.fragments_unmatched,
            "fragments_evicted": self.fragments_evicted,
            "truncated": self.traces_truncated,
            "partial": self.traces_partial,
        }

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._sizes.clear()
            self._pending.clear()
            self._bytes = 0


def _status_matches(record: Mapping[str, Any], status: str) -> bool:
    if status in ("ok", "error"):
        if status == "error":
            return record["status"] != "ok" or any(
                s.get("status", "ok") != "ok" for s in record["spans"]
            )
        return record["status"] == "ok"
    root_status = record["spans"][0]["attributes"].get("status")
    return str(root_status) == status


def _approx_bytes(record: Mapping[str, Any]) -> int:
    """The record's JSON footprint — what the byte budget accounts in."""
    try:
        return len(json.dumps(record, default=str))
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return 1024
