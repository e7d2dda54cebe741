"""Interactivity caching (paper §2: in-memory caching / avoiding repeated
data access, after [18] and Data Canopy [57]).

Interactive SDE repeatedly revisits rating groups — a user rolls up, drills
back down, retraces recommendations.  :class:`CachingEngine` wraps a
:class:`~repro.core.engine.SubDEx` engine with two LRU caches:

* **group cache** — materialised :class:`RatingGroup` row sets per
  selection criteria (the dominant per-operation cost);
* **result cache** — full :class:`RMSetResult` per (criteria, seen-state
  fingerprint), so re-examining a selection under the same display history
  is instant.

The caches are transparent (identical results) and expose hit statistics
for the interactivity bench.

Both :class:`LRUCache` and :class:`CachingEngine` are **thread-safe**: the
serving layer (:mod:`repro.server`) shares one caching engine per dataset
across every concurrent session so group/result reuse is amortised across
users.  Cache bookkeeping (lookup, insertion, eviction, statistics) is
guarded by a per-cache lock; the expensive computation on a miss runs
*outside* the lock, under a per-key **single-flight** lock
(:class:`~repro.concurrency.KeyedSingleFlight`): when several threads miss
the same key simultaneously, one computes while the rest wait and then
read the freshly cached value — no thundering herd of duplicate
generations.  Different keys never block each other.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Hashable

from ..concurrency import KeyedSingleFlight
from ..model.groups import RatingGroup, SelectionCriteria
from ..obs import span as obs_span
from ..resilience.gate import under_pressure
from .engine import SubDEx
from .generator import RMSetResult
from .utility import SeenMaps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import ExplorationSession

__all__ = ["CacheStats", "LRUCache", "CachingEngine"]


@dataclass
class CacheStats:
    """Hit/miss counters of one cache.

    Mutated only while the owning cache's lock is held, so the counters
    stay consistent under concurrent use; reads are single-attribute and
    therefore safe without the lock.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> dict[str, float]:
        """A point-in-time JSON-friendly view (for the /metrics endpoint)."""
        hits, misses, evictions = self.hits, self.misses, self.evictions
        requests = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "requests": requests,
            "evictions": evictions,
            "hit_rate": hits / requests if requests else 0.0,
        }

    def describe(self) -> str:
        return (
            f"{self.hits} hits / {self.requests} requests "
            f"({self.hit_rate:.0%}), {self.evictions} evictions"
        )


class LRUCache:
    """A small, explicit, thread-safe LRU cache (no functools.lru_cache:
    we need stats and non-function usage)."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._store: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def get(self, key: Hashable) -> object | None:
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.stats.hits += 1
                return self._store[key]
            self.stats.misses += 1
            return None

    def peek(self, key: Hashable) -> object | None:
        """Like :meth:`get` but without touching the hit/miss counters.

        Used for the re-check after acquiring a single-flight lock: the
        original miss was already counted, and a waiter finding the value
        the first holder computed is not a second logical request.
        """
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                return self._store[key]
            return None

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
            self._store[key] = value
            if len(self._store) > self._capacity:
                self._store.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._store.clear()


def _seen_fingerprint(seen: SeenMaps) -> tuple:
    """A hashable fingerprint of the display history that affects results.

    DW utilities depend on the dimension/attribute histories and global
    peculiarity on the pooled distributions; both are captured by the
    ordered dimension history plus the pooled distributions themselves
    (hashable RatingDistribution values).
    """
    return (
        seen.dimension_history(),
        seen.pooled_distributions(),
    )


class CachingEngine:
    """A drop-in caching layer over :class:`SubDEx`.

    ``rating_maps`` / ``group`` calls hit the caches; everything else
    delegates to the wrapped engine.  Safe to share across threads — each
    server worker thread (or exploration session) may call into one shared
    instance concurrently.
    """

    def __init__(
        self,
        engine: SubDEx,
        group_capacity: int = 256,
        result_capacity: int = 128,
    ) -> None:
        self._engine = engine
        self._groups = LRUCache(group_capacity)
        self._results = LRUCache(result_capacity)
        # criteria → most recent full-quality result under *any* display
        # history: the graceful-degradation fallback ("stale RM-Set")
        self._latest = LRUCache(result_capacity)
        self._flight = KeyedSingleFlight()
        self.stale_hits = 0
        #: Requests that blocked on another thread's in-flight computation
        #: and then read its freshly cached value (no duplicate work done).
        self.flight_waits = 0

    @property
    def engine(self) -> SubDEx:
        return self._engine

    @property
    def database(self):
        return self._engine.database

    @property
    def group_stats(self) -> CacheStats:
        return self._groups.stats

    @property
    def result_stats(self) -> CacheStats:
        return self._results.stats

    def _materialise(self, criteria: SelectionCriteria) -> RatingGroup:
        index = self._engine.index
        if index is not None:
            return index.group(criteria)
        return RatingGroup(self._engine.database, criteria)

    def group(self, criteria: SelectionCriteria) -> RatingGroup:
        """A (cached) materialised rating group."""
        with obs_span("cache.group") as sp:
            cached = self._groups.get(criteria)
            if cached is not None:
                sp.set(outcome="hit")
                return cached  # type: ignore[return-value]
            with self._flight.lock(("group", criteria)):
                cached = self._groups.peek(criteria)
                if cached is None:
                    cached = self._materialise(criteria)
                    self._groups.put(criteria, cached)
                    sp.set(outcome="miss")
                else:
                    self.flight_waits += 1
                    sp.set(outcome="wait")
            return cached  # type: ignore[return-value]

    def rating_maps(
        self,
        criteria: SelectionCriteria | None = None,
        seen: SeenMaps | None = None,
    ) -> RMSetResult:
        """Problem 1 with caching; results identical to the plain engine."""
        criteria = criteria or SelectionCriteria.root()
        seen = seen or SeenMaps(
            self._engine.database.dimensions,
            n_attributes=len(self._engine.database.grouping_attributes()),
        )
        key = (criteria, _seen_fingerprint(seen))
        with obs_span("cache.rating_maps") as sp:
            cached = self._results.get(key)
            if cached is not None:
                sp.set(outcome="hit")
                return cached  # type: ignore[return-value]
            with self._flight.lock(("result", key)):
                cached = self._results.peek(key)
                if cached is not None:
                    self.flight_waits += 1
                    sp.set(outcome="wait")
                    return cached  # type: ignore[return-value]
                if under_pressure():
                    # graceful degradation: reuse the latest result computed
                    # for the same selection under a *different* display
                    # history instead of paying a full generation, flagged
                    # ``degraded`` so the serving layer can tell the client
                    stale = self._latest.peek(criteria)
                    if stale is not None:
                        self.stale_hits += 1
                        sp.set(outcome="stale")
                        return replace(stale, degraded=True)  # type: ignore[arg-type]
                sp.set(outcome="miss")
                group = self.group(criteria)
                index = self._engine.index
                slices = (
                    None if index is None else index.step_slices(criteria, group.rows)
                )
                result = self._engine.generator.generate(group, seen, slices=slices)
                if not result.degraded:
                    # degraded (pressure-time) results are answers, not truth:
                    # keep them out of the shared caches so later requests
                    # recompute at full fidelity
                    self._results.put(key, result)
                    self._latest.put(criteria, result)
                return result

    def session(self, start: SelectionCriteria | None = None) -> "ExplorationSession":
        """A fresh exploration session whose group materialisation and
        RM-Set generation run through this shared cache.

        Sessions created this way by different users amortise each other's
        work: revisiting a selection another session already examined under
        the same display history is a cache hit.
        """
        from .session import ExplorationSession

        return ExplorationSession(
            self._engine.database,
            self._engine.generator,
            self._engine.recommender,
            start,
            cache=self,
            index=self._engine.index,
        )

    def clear(self) -> None:
        self._groups.clear()
        self._results.clear()
        self._latest.clear()
