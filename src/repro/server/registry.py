"""The session registry: who is exploring what, and for how long.

Each connected user owns one :class:`~repro.core.session.ExplorationSession`
(stateful: current criteria, seen-maps display history, step log).  The
registry wraps every session in a :class:`ManagedSession` carrying a
per-session lock — requests for the *same* session serialise (a session's
seen-state mutates on every step), while requests for *different* sessions
proceed concurrently on the server's worker threads.

Capacity is bounded two ways:

* a hard **session cap** — creating a session beyond ``max_sessions``
  raises :class:`SessionLimitError` (HTTP 429);
* **TTL idle eviction** — sessions untouched for ``ttl_seconds`` are
  evicted opportunistically on registry traffic; their ids are remembered
  in a bounded tombstone map so late requests get a truthful
  :class:`SessionGoneError` (HTTP 410) rather than a generic 404.

The clock is injectable so eviction is deterministic in tests.
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator

from ..core.session import ExplorationSession, StepRecord
from ..exceptions import ReproError
from ..resilience.faults import FaultPlan

__all__ = [
    "ManagedSession",
    "SessionGoneError",
    "SessionLimitError",
    "SessionRegistry",
    "UnknownSessionError",
]

_log = logging.getLogger("repro.server.registry")

_TOMBSTONE_CAPACITY = 1024


class UnknownSessionError(ReproError):
    """The session id was never issued by this server (HTTP 404)."""

    def __init__(self, session_id: str) -> None:
        super().__init__(f"unknown session {session_id!r}")
        self.session_id = session_id


class SessionGoneError(ReproError):
    """The session existed but was closed or idle-evicted (HTTP 410)."""

    def __init__(self, session_id: str, reason: str) -> None:
        super().__init__(f"session {session_id!r} is gone ({reason})")
        self.session_id = session_id
        self.reason = reason


class SessionLimitError(ReproError):
    """The server is at its live-session cap (HTTP 429)."""

    def __init__(self, limit: int) -> None:
        super().__init__(
            f"session limit reached ({limit} live sessions); retry later "
            "or close an existing session"
        )
        self.limit = limit


class ManagedSession:
    """One registered exploration session plus its serving bookkeeping."""

    def __init__(
        self,
        session_id: str,
        dataset: str,
        session: ExplorationSession,
        created_monotonic: float,
        created_wall: float | None = None,
    ) -> None:
        self.session_id = session_id
        self.dataset = dataset
        self.session = session
        self.lock = threading.Lock()
        # restored sessions keep their original creation time
        self.created_wall = time.time() if created_wall is None else created_wall
        self.created_monotonic = created_monotonic
        self.last_used = created_monotonic
        #: The latest step record — the numbered recommendation list an
        #: ``/apply`` request refers to is *this* record's.
        self.latest: StepRecord | None = None

    def summary(self, now: float) -> dict:
        """A JSON-friendly view for ``GET /sessions``."""
        return {
            "session_id": self.session_id,
            "dataset": self.dataset,
            # the session is briefly None while its factory runs (the id is
            # private to the creating request, but /sessions may list it)
            "n_steps": self.session.n_steps if self.session is not None else 0,
            "created_at": self.created_wall,
            "idle_seconds": max(0.0, now - self.last_used),
        }


class SessionRegistry:
    """Thread-safe ownership of every live :class:`ManagedSession`."""

    def __init__(
        self,
        max_sessions: int = 64,
        ttl_seconds: float = 1800.0,
        clock: Callable[[], float] = time.monotonic,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self._max_sessions = max_sessions
        self._ttl_seconds = ttl_seconds
        self._clock = clock
        self._fault_plan = fault_plan
        self._lock = threading.Lock()
        self._sessions: dict[str, ManagedSession] = {}
        self._tombstones: OrderedDict[str, str] = OrderedDict()  # id → reason
        self.created = 0
        self.closed = 0
        self.evicted = 0
        self.rejected = 0

    # -- capacity -----------------------------------------------------------
    @property
    def max_sessions(self) -> int:
        return self._max_sessions

    @property
    def ttl_seconds(self) -> float:
        return self._ttl_seconds

    @property
    def live_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- lifecycle ----------------------------------------------------------
    def create(
        self,
        dataset: str,
        factory: Callable[[], ExplorationSession],
        session_id: str | None = None,
    ) -> ManagedSession:
        """Register a new session, enforcing the cap.

        ``session_id`` is the caller's choice (a cluster front picks it so
        it can route before the session exists); ``None`` generates one.
        The (possibly expensive) session construction runs outside the
        registry lock; the slot is claimed first so a create stampede
        cannot overshoot the cap.
        """
        self.evict_idle()
        if session_id is None:
            session_id = uuid.uuid4().hex
        with self._lock:
            if session_id in self._sessions:
                raise ReproError(f"session {session_id!r} already live")
            if len(self._sessions) >= self._max_sessions:
                self.rejected += 1
                raise SessionLimitError(self._max_sessions)
            placeholder = ManagedSession(
                session_id, dataset, None, self._clock()  # type: ignore[arg-type]
            )
            self._sessions[session_id] = placeholder
        try:
            placeholder.session = factory()
        except BaseException:
            with self._lock:
                self._sessions.pop(session_id, None)
            raise
        with self._lock:
            self.created += 1
        _log.info("created session %s (dataset %r)", session_id, dataset)
        return placeholder

    @contextmanager
    def acquire(self, session_id: str) -> Iterator[ManagedSession]:
        """Yield the session with its per-session lock held.

        Raises :class:`UnknownSessionError` for ids this server never
        issued and :class:`SessionGoneError` for closed/evicted ones.
        """
        self.evict_idle()
        with self._lock:
            managed = self._sessions.get(session_id)
            if managed is None:
                reason = self._tombstones.get(session_id)
                if reason is not None:
                    raise SessionGoneError(session_id, reason)
                raise UnknownSessionError(session_id)
        if self._fault_plan is not None:
            # chaos site "registry.acquire": a slow or failing lock handoff
            self._fault_plan.check("registry.acquire")
        with managed.lock:
            with self._lock:
                # re-check: the session may have been closed while we
                # waited on its lock
                if session_id not in self._sessions:
                    reason = self._tombstones.get(session_id, "closed")
                    raise SessionGoneError(session_id, reason)
            try:
                yield managed
            finally:
                managed.last_used = self._clock()

    def adopt(
        self,
        session_id: str,
        dataset: str,
        session: ExplorationSession,
        created_wall: float | None = None,
    ) -> ManagedSession:
        """Register a restored session under its original id.

        Used only by checkpoint restore on startup: the id was issued by a
        previous incarnation of this server, so clients holding it must
        keep working.  Beyond-cap restores raise
        :class:`SessionLimitError` (oldest checkpoints win).
        """
        managed = ManagedSession(
            session_id, dataset, session, self._clock(), created_wall
        )
        with self._lock:
            if session_id in self._sessions:
                raise ReproError(f"session {session_id!r} already live")
            if len(self._sessions) >= self._max_sessions:
                self.rejected += 1
                raise SessionLimitError(self._max_sessions)
            self._sessions[session_id] = managed
            self._tombstones.pop(session_id, None)
            self.created += 1
        return managed

    def close(self, session_id: str) -> ManagedSession:
        """Remove a session and tombstone its id as ``closed``."""
        with self._lock:
            managed = self._sessions.pop(session_id, None)
            if managed is None:
                reason = self._tombstones.get(session_id)
                if reason is not None:
                    raise SessionGoneError(session_id, reason)
                raise UnknownSessionError(session_id)
            self._remember(session_id, "closed")
            self.closed += 1
        _log.info("closed session %s", session_id)
        return managed

    def evict_idle(self, now: float | None = None) -> list[str]:
        """Evict every session idle past the TTL; returns the evicted ids.

        Sessions whose lock is held (a request is mid-flight) are skipped —
        they are not idle, whatever their timestamp says.
        """
        now = self._clock() if now is None else now
        evicted: list[str] = []
        with self._lock:
            for session_id, managed in list(self._sessions.items()):
                if now - managed.last_used < self._ttl_seconds:
                    continue
                if not managed.lock.acquire(blocking=False):
                    continue
                try:
                    del self._sessions[session_id]
                    self._remember(session_id, "evicted")
                    self.evicted += 1
                    evicted.append(session_id)
                finally:
                    managed.lock.release()
        if evicted:
            _log.info(
                "idle-evicted %d session(s): %s", len(evicted), ", ".join(evicted)
            )
        return evicted

    def _remember(self, session_id: str, reason: str) -> None:
        # caller holds self._lock
        self._tombstones[session_id] = reason
        while len(self._tombstones) > _TOMBSTONE_CAPACITY:
            self._tombstones.popitem(last=False)

    # -- introspection -------------------------------------------------------
    def live_sessions(self) -> list[ManagedSession]:
        """A point-in-time list of live sessions (for the checkpointer)."""
        with self._lock:
            return list(self._sessions.values())

    def summaries(self) -> list[dict]:
        now = self._clock()
        with self._lock:
            return [m.summary(now) for m in self._sessions.values()]

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "live": len(self._sessions),
                "capacity": self._max_sessions,
                "created": self.created,
                "closed": self.closed,
                "evicted": self.evicted,
                "rejected": self.rejected,
            }
