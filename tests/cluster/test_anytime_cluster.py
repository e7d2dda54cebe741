"""Anytime semantics across the cluster boundary.

The front picks the rung and ships ``{budget_ms, rung}`` to the shard
owner inside the op payload; refinement tokens are minted and served by
the owning worker.  Satellite 3: a worker SIGKILLed mid-refinement loses
its (process-local) token store — polls for the orphaned token must
answer the typed ``refinement_lost`` 410 (or a completed result), never
a hang and never a 500.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.engine import SubDEx, SubDExConfig
from repro.resilience.faults import FaultPlan
from repro.server import ServerConfig, ServerError, SubDExClient, build_server


def _start(db_factory, tmp_path, fault_plan=None):
    server = build_server(
        {"synthetic": lambda: SubDEx(db_factory(seed=3), SubDExConfig())},
        config=ServerConfig(
            workers=2,
            worker_heartbeat_seconds=0.15,
            checkpoint_dir=str(tmp_path / "checkpoints"),
        ),
        fault_plan=fault_plan,
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@pytest.fixture()
def anytime_server(db_factory, tmp_path):
    server = _start(db_factory, tmp_path)
    yield server
    server.graceful_shutdown(drain_seconds=5.0)


@pytest.fixture()
def client(anytime_server):
    with SubDExClient(anytime_server.url) as instance:
        yield instance


def _raw(url: str):
    request = urllib.request.Request(url, method="GET")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _numbers(recommendations) -> list[tuple[str, float]]:
    return [(r["description"], r["utility"]) for r in recommendations]


def _wait_restarted(client, worker: int, timeout: float = 30.0) -> None:
    """Wait until ``worker`` has been restarted and is back up.

    Heartbeat state can lag a SIGKILL, so waiting for "up" alone races
    the supervisor's detection — the restart counter is the real signal.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        info = {w["worker"]: w for w in client.workers()["workers"]}
        entry = info.get(worker)
        if (
            entry is not None
            and entry["restarts"] >= 1
            and entry["state"] == "up"
            and entry["alive"]
        ):
            return
        time.sleep(0.1)
    raise AssertionError("worker never restarted")


def test_budget_and_rung_propagate_to_worker(client):
    session = client.create_session()
    plain = session.recommendations()
    payload = session.recommend(budget_ms=60_000)
    quality = payload["quality"]
    assert quality["rung"] == "full"
    assert quality["complete"] is True
    assert quality["budget_ms"] == 60_000
    assert payload["degraded"] is False
    assert payload["refinement"] is None
    assert _numbers(payload["recommendations"]) == _numbers(plain)
    session.close()


def test_worker_refines_its_own_partial(client):
    session = client.create_session()
    plain = session.recommendations()
    payload = session.recommend(budget_ms=1)
    assert payload["quality"]["complete"] is False
    assert payload["quality"]["budget_cut"] is True
    token = payload["refinement"]["token"]
    refined = session.wait_for_refinement(token, timeout=30.0)
    assert refined["status"] == "done"
    assert refined["quality"]["complete"] is True
    assert _numbers(refined["recommendations"]) == _numbers(plain)
    session.close()


def test_forced_cut_yields_partial_then_refines(db_factory, tmp_path):
    """The front's FaultPlan budget cut reaches the shard owner, and the
    front's anytime accounting sees it, exactly as with 0 workers."""
    plan = FaultPlan(budget_cut_phases={"anytime.recommend": 1})
    server = _start(db_factory, tmp_path, fault_plan=plan)
    try:
        with SubDExClient(server.url) as client:
            session = client.create_session()
            full = session.recommendations()
            payload = session.recommend(budget_ms=60_000)
            quality = payload["quality"]
            assert payload["degraded"] is True
            assert quality["complete"] is False
            assert quality["budget_cut"] is True
            assert quality["snapshots"] == 1
            assert 0 < quality["candidates_scanned"] < quality["candidates_total"]
            assert plan.counters()["anytime.recommend"]["budget_cuts"] >= 1

            refinement = payload["refinement"]
            assert refinement is not None and refinement["token"]
            assert refinement["href"].endswith(refinement["token"])
            refined = session.wait_for_refinement(
                refinement["token"], timeout=30.0
            )
            assert refined["status"] == "done"
            assert refined["quality"]["complete"] is True
            assert _numbers(refined["recommendations"]) == _numbers(full)

            anytime = client.metrics()["resilience"]["anytime"]
            assert anytime["latency_ewma_ms"] is not None
            assert anytime["forced_cuts"] == 1
            assert anytime["partials"] == 1
    finally:
        server.graceful_shutdown(drain_seconds=5.0)


def test_sigkilled_worker_loses_tokens_loudly(anytime_server, client):
    session = client.create_session()
    payload = session.recommend(budget_ms=1)
    token = payload["refinement"]["token"]

    owner = {s["session_id"]: s for s in client.sessions()}[session.id]["worker"]
    info = {w["worker"]: w for w in client.workers()["workers"]}
    os.kill(info[owner]["pid"], signal.SIGKILL)
    _wait_restarted(client, owner)

    # the restarted worker has an empty refinement store: the poll answers
    # a typed loss (or, if the job finished before the kill landed on the
    # *other* worker, a completed result) — never a hang, never a 500
    url = (
        anytime_server.url
        + f"/sessions/{session.id}/recommendations/refine/{token}"
    )
    deadline = time.monotonic() + 30.0
    while True:
        status, body = _raw(url)
        if status != 503:  # transient worker_unavailable during restart
            break
        assert time.monotonic() < deadline, "refine poll never settled"
        time.sleep(0.1)
    if status == 200:
        assert body["status"] == "done"
    else:
        assert status == 410, body
        assert body["error"]["code"] == "refinement_lost"
    # a fresh budgeted request works again end to end
    fresh = session.recommend(budget_ms=60_000)
    assert fresh["quality"]["complete"] is True
    session.close()
