"""End-to-end resilience: deadlines, shedding, breakers, restarts, drains."""

from __future__ import annotations

import threading
import time

import pytest

from repro import SubDEx, SubDExConfig
from repro.core.recommend import RecommenderConfig
from repro.resilience import FaultPlan
from repro.server import ServerError, SubDExClient


# -- deadlines ---------------------------------------------------------------

def test_expired_deadline_answers_structured_504(make_server, no_retry_client):
    server = make_server()
    client = no_retry_client(server.url)
    with pytest.raises(ServerError) as excinfo:
        client.request("POST", "/sessions", {}, deadline_ms=1)
    error = excinfo.value
    assert error.status == 504
    assert error.code == "deadline_exceeded"
    assert error.retryable is True
    assert "deadline" in error.message


def test_generous_deadline_succeeds(make_server, no_retry_client):
    server = make_server()
    client = no_retry_client(server.url)
    data = client.request("POST", "/sessions", {}, deadline_ms=60_000)
    assert data["step"]["index"] == 1


def test_invalid_deadline_header_is_400(make_server, no_retry_client):
    server = make_server()
    client = no_retry_client(server.url)
    with pytest.raises(ServerError) as excinfo:
        client.request("GET", "/health", deadline_ms=0)
    assert excinfo.value.status == 400
    assert excinfo.value.code == "invalid_deadline"


def test_server_default_deadline_applies(make_server, no_retry_client):
    server = make_server(default_deadline_ms=1)
    client = no_retry_client(server.url)
    with pytest.raises(ServerError) as excinfo:
        client.request("POST", "/sessions", {})
    assert excinfo.value.status == 504
    assert server.metrics.event_count("deadline_exceeded") == 1


# -- fault injection ----------------------------------------------------------

def test_injected_handler_fault_is_a_well_formed_500(make_server, no_retry_client):
    plan = FaultPlan(seed=0, error_rates={"handler": 1.0})
    server = make_server(fault_plan=plan)
    client = no_retry_client(server.url)
    with pytest.raises(ServerError) as excinfo:
        client.request("GET", "/sessions")
    error = excinfo.value
    assert error.status == 500
    assert error.code == "injected_fault"
    assert error.retryable is True
    assert plan.counters()["handler"]["errors"] >= 1


# -- the engine-pool circuit breaker ------------------------------------------

def test_failed_dataset_load_is_not_cached(tiny_db, make_server, no_retry_client):
    """Satellite 1: a failed load answers 503 and the next attempt rebuilds."""
    attempts = []

    def flaky_factory():
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("transient shard corruption")
        return SubDEx(
            tiny_db,
            SubDExConfig(
                recommender=RecommenderConfig(max_values_per_attribute=3)
            ),
        )

    server = make_server(
        factories={"flaky": flaky_factory},
        breaker_failure_threshold=3,
    )
    client = no_retry_client(server.url)
    with pytest.raises(ServerError) as excinfo:
        client.create_session()
    assert excinfo.value.status == 503
    assert excinfo.value.code == "dataset_unavailable"
    assert excinfo.value.retryable is True
    # the failure was evicted, not cached: the retry gets a working engine
    session = client.create_session()
    assert session.step["index"] == 1
    assert len(attempts) == 2


def test_breaker_opens_after_repeated_load_failures(make_server, no_retry_client):
    def doomed_factory():
        raise RuntimeError("corrupt dataset")

    server = make_server(
        factories={"bad": doomed_factory},
        breaker_failure_threshold=2,
        breaker_reset_seconds=300.0,
    )
    client = no_retry_client(server.url)
    for _ in range(2):  # two real (failing) load attempts
        with pytest.raises(ServerError) as excinfo:
            client.create_session()
        assert excinfo.value.status == 503
    assert server.pool.breaker("bad").state == "open"
    # now the breaker answers instantly, without re-running the load
    started = time.perf_counter()
    with pytest.raises(ServerError) as excinfo:
        client.create_session()
    assert time.perf_counter() - started < 1.0
    assert excinfo.value.status == 503
    assert excinfo.value.retry_after is not None and excinfo.value.retry_after > 0
    snapshot = client.metrics()["resilience"]["breakers"]["bad"]
    assert snapshot["state"] == "open"


# -- load shedding and degradation --------------------------------------------

def slow_plan(seconds: float) -> FaultPlan:
    """Stall every session-lock handoff, holding requests in the gate."""
    return FaultPlan(
        seed=0,
        latency_rates={"registry.acquire": 1.0},
        latency_seconds=seconds,
    )


def test_hard_limit_sheds_with_retry_after(make_server, no_retry_client):
    server = make_server(
        fault_plan=slow_plan(1.0), max_inflight=1, soft_inflight=1
    )
    client = no_retry_client(server.url)
    session = client.create_session()

    errors = []

    def stalled_read():
        with SubDExClient(server.url) as other:
            try:
                other.request("GET", f"/sessions/{session.id}")
            except ServerError as error:  # pragma: no cover - defensive
                errors.append(error)

    reader = threading.Thread(target=stalled_read)
    reader.start()
    time.sleep(0.3)  # let the reader stall inside the gate
    try:
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/sessions", {})
        assert excinfo.value.status == 503
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.retry_after is not None
        # critical introspection still works on a saturated server
        assert client.health()["status"] == "ok"
    finally:
        reader.join(10.0)
    assert not errors
    assert server.metrics.event_count("shed_requests") == 1


def test_soft_limit_degrades_heavy_work(make_server, no_retry_client):
    server = make_server(
        fault_plan=slow_plan(1.2), max_inflight=8, soft_inflight=1
    )
    client = no_retry_client(server.url)
    session = client.create_session()

    def stalled_read():
        with SubDExClient(server.url) as other:
            other.request("GET", f"/sessions/{session.id}")

    reader = threading.Thread(target=stalled_read)
    reader.start()
    time.sleep(0.3)
    try:
        step = session.apply_recommendation(1)
    finally:
        reader.join(10.0)
    assert step["degraded"] is True
    assert step["recommendations"]  # degraded, not empty
    assert server.metrics.event_count("degraded_responses") >= 1


# -- crash-safe sessions -------------------------------------------------------

def test_restart_restores_sessions_with_identical_history(
    tmp_path, make_server, no_retry_client
):
    checkpoint_dir = str(tmp_path / "checkpoints")
    first = make_server(checkpoint_dir=checkpoint_dir)
    client = no_retry_client(first.url)
    session = client.create_session()
    session.apply_recommendation(1)
    before = session.history()
    first.graceful_shutdown(drain_seconds=5.0)

    second = make_server(checkpoint_dir=checkpoint_dir)
    assert second.metrics.event_count("sessions_restored") == 1
    reborn = no_retry_client(second.url)
    after = reborn.request("GET", f"/sessions/{session.id}/history")
    assert after == before
    # the restored session is live, not a read-only ghost
    step = reborn.request(
        "POST", f"/sessions/{session.id}/apply", {"recommendation": 1}
    )
    assert step["step"]["index"] == 3


def test_close_deletes_the_checkpoint(tmp_path, make_server, no_retry_client):
    checkpoint_dir = tmp_path / "checkpoints"
    server = make_server(checkpoint_dir=str(checkpoint_dir))
    client = no_retry_client(server.url)
    session = client.create_session()
    assert (checkpoint_dir / f"{session.id}.jsonl").exists()
    session.close()
    assert not (checkpoint_dir / f"{session.id}.jsonl").exists()
    # restart: nothing to restore
    second = make_server(checkpoint_dir=str(checkpoint_dir))
    assert second.registry.live_count == 0


# -- graceful shutdown ---------------------------------------------------------

def test_graceful_shutdown_drains_inflight_requests(make_server):
    """Satellite 3: no request is dropped mid-handler during shutdown."""
    server = make_server(fault_plan=slow_plan(0.6), drain_seconds=10.0)
    with SubDExClient(server.url) as client:
        session = client.create_session()

    outcome = {}

    def slow_request():
        with SubDExClient(server.url) as other:
            outcome["summary"] = other.request("GET", f"/sessions/{session.id}")

    worker = threading.Thread(target=slow_request)
    worker.start()
    time.sleep(0.2)  # the request is now stalled inside the handler
    assert server.gate.inflight >= 1
    drained = server.graceful_shutdown()
    worker.join(10.0)
    assert drained is True
    # the in-flight request completed with a real answer, not a reset
    assert outcome["summary"]["session_id"] == session.id
    # and the server is really down afterwards
    with pytest.raises(OSError):
        import http.client

        probe = http.client.HTTPConnection(
            server.server_address[0], server.server_address[1], timeout=1.0
        )
        probe.request("GET", "/health")
        probe.getresponse()


def test_shutdown_flushes_final_checkpoints(tmp_path, make_server, no_retry_client):
    checkpoint_dir = tmp_path / "checkpoints"
    server = make_server(
        checkpoint_dir=str(checkpoint_dir),
        checkpoint_interval_seconds=3600.0,  # periodic flush will not fire
    )
    client = no_retry_client(server.url)
    session = client.create_session()
    # wipe the on-mutation checkpoint to prove the shutdown flush rewrites it
    (checkpoint_dir / f"{session.id}.jsonl").unlink()
    server.graceful_shutdown(drain_seconds=5.0)
    assert (checkpoint_dir / f"{session.id}.jsonl").exists()
