"""Tests for the session registry: locks, cap, TTL eviction, tombstones."""

from types import SimpleNamespace

import pytest

from repro.exceptions import ReproError
from repro.server.registry import (
    SessionGoneError,
    SessionLimitError,
    SessionRegistry,
    UnknownSessionError,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def _session():
    return SimpleNamespace(n_steps=0)


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def registry(clock):
    return SessionRegistry(max_sessions=2, ttl_seconds=10.0, clock=clock)


class TestLifecycle:
    def test_create_and_acquire(self, registry):
        managed = registry.create("tiny", _session)
        assert registry.live_count == 1
        with registry.acquire(managed.session_id) as live:
            assert live is managed
        assert registry.counters()["created"] == 1

    def test_ids_are_unique(self, registry):
        a = registry.create("tiny", _session)
        b = registry.create("tiny", _session)
        assert a.session_id != b.session_id

    def test_unknown_session(self, registry):
        with pytest.raises(UnknownSessionError):
            with registry.acquire("f" * 32):
                pass

    def test_close_tombstones(self, registry):
        managed = registry.create("tiny", _session)
        registry.close(managed.session_id)
        assert registry.live_count == 0
        with pytest.raises(SessionGoneError, match="closed"):
            with registry.acquire(managed.session_id):
                pass
        with pytest.raises(SessionGoneError):
            registry.close(managed.session_id)

    def test_factory_failure_releases_slot(self, registry):
        def boom():
            raise RuntimeError("dataset exploded")

        with pytest.raises(RuntimeError):
            registry.create("tiny", boom)
        assert registry.live_count == 0
        registry.create("tiny", _session)  # the slot is reusable

    def test_given_id_is_honoured(self, registry):
        managed = registry.create("tiny", _session, session_id="a" * 32)
        assert managed.session_id == "a" * 32
        with registry.acquire("a" * 32) as live:
            assert live is managed

    def test_duplicate_live_id_raises(self, registry):
        registry.create("tiny", _session, session_id="a" * 32)
        with pytest.raises(ReproError, match="already live"):
            registry.create("tiny", _session, session_id="a" * 32)
        assert registry.live_count == 1


class TestCap:
    def test_limit_enforced(self, registry):
        registry.create("tiny", _session)
        registry.create("tiny", _session)
        with pytest.raises(SessionLimitError):
            registry.create("tiny", _session)
        assert registry.counters()["rejected"] == 1

    def test_close_frees_capacity(self, registry):
        a = registry.create("tiny", _session)
        registry.create("tiny", _session)
        registry.close(a.session_id)
        registry.create("tiny", _session)  # no SessionLimitError


class TestTTLEviction:
    def test_idle_session_evicted(self, registry, clock):
        managed = registry.create("tiny", _session)
        clock.advance(11.0)
        assert registry.evict_idle() == [managed.session_id]
        with pytest.raises(SessionGoneError, match="evicted"):
            with registry.acquire(managed.session_id):
                pass
        assert registry.counters()["evicted"] == 1

    def test_fresh_session_kept(self, registry, clock):
        registry.create("tiny", _session)
        clock.advance(5.0)
        assert registry.evict_idle() == []
        assert registry.live_count == 1

    def test_acquire_refreshes_ttl(self, registry, clock):
        managed = registry.create("tiny", _session)
        clock.advance(8.0)
        with registry.acquire(managed.session_id):
            pass  # releases at t=8 → last_used refreshed
        clock.advance(8.0)
        assert registry.evict_idle() == []  # only 8s idle, not 16

    def test_busy_session_not_evicted(self, registry, clock):
        managed = registry.create("tiny", _session)
        with registry.acquire(managed.session_id):
            clock.advance(100.0)
            # a request is mid-flight: the session's lock is held, so the
            # sweep must skip it no matter how stale the timestamp looks
            assert registry.evict_idle() == []
        assert registry.live_count == 1

    def test_eviction_is_opportunistic_on_create(self, registry, clock):
        stale = registry.create("tiny", _session)
        registry.create("tiny", _session)
        clock.advance(11.0)
        # the registry is at capacity, but creating sweeps first
        registry.create("tiny", _session)
        assert stale.session_id not in [
            s["session_id"] for s in registry.summaries()
        ]


class TestIntrospection:
    def test_summaries(self, registry, clock):
        managed = registry.create("tiny", _session)
        clock.advance(3.0)
        (summary,) = registry.summaries()
        assert summary["session_id"] == managed.session_id
        assert summary["dataset"] == "tiny"
        assert summary["idle_seconds"] == pytest.approx(3.0)

    def test_counters_shape(self, registry):
        counters = registry.counters()
        assert counters == {
            "live": 0,
            "capacity": 2,
            "created": 0,
            "closed": 0,
            "evicted": 0,
            "rejected": 0,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionRegistry(max_sessions=0)
        with pytest.raises(ValueError):
            SessionRegistry(ttl_seconds=0.0)
