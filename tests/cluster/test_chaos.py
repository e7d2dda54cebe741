"""Chaos: SIGKILL a worker and watch the envelope.

A dead worker must (a) answer routed requests with the retryable 503
``worker_unavailable`` envelope (Retry-After included) while it is down,
(b) be detected and restarted by the supervisor, (c) come back with its
sessions restored from its checkpoint store — same bytes as before the
crash — and (d) leave stateless scans either exact (answered by the
survivor) or a typed 503, never degraded or silently wrong."""

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
from repro.server import ServerConfig, SubDExClient, build_server


@pytest.fixture()
def chaos_server(db_factory, tmp_path):
    server = build_server(
        {"synthetic": lambda: SubDEx(db_factory(seed=3), SubDExConfig())},
        config=ServerConfig(
            workers=2,
            worker_heartbeat_seconds=0.15,
            checkpoint_dir=str(tmp_path / "checkpoints"),
        ),
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server
    server.graceful_shutdown(drain_seconds=5.0)


@pytest.fixture()
def client(chaos_server):
    with SubDExClient(chaos_server.url) as instance:
        yield instance


def _raw(url: str, method: str = "GET", body=None):
    """One HTTP round trip with no client-side retries."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url,
        method=method,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _worker_info(client) -> dict[int, dict]:
    return {w["worker"]: w for w in client.workers()["workers"]}


def _wait_all_up(client, n_workers: int = 2, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        info = _worker_info(client)
        if len(info) == n_workers and all(
            w["state"] == "up" and w["alive"] for w in info.values()
        ):
            return
        time.sleep(0.1)
    raise AssertionError(f"workers never recovered: {_worker_info(client)}")


def _assert_unavailable_envelope(headers, payload) -> None:
    error = payload["error"]
    assert error["code"] == "worker_unavailable"
    assert error["retryable"] is True
    assert "Retry-After" in headers


def test_killed_worker_503s_then_restarts_with_session_intact(
    chaos_server, client, strip
):
    session = client.create_session()
    listed = {s["session_id"]: s for s in client.sessions()}
    owner = listed[session.id]["worker"]
    baseline = strip(client.request("GET", f"/sessions/{session.id}/maps"))
    n_steps_before = listed[session.id]["n_steps"]

    os.kill(_worker_info(client)[owner]["pid"], signal.SIGKILL)

    recovered = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        status, headers, payload = _raw(
            chaos_server.url + f"/sessions/{session.id}/maps"
        )
        if status == 200:
            recovered = payload
            break
        assert status == 503, payload
        _assert_unavailable_envelope(headers, payload)
        time.sleep(0.1)
    assert recovered is not None, "worker never came back"
    assert strip(recovered) == baseline

    _wait_all_up(client)
    info = _worker_info(client)
    assert info[owner]["restarts"] >= 1
    # restored from checkpoint: same step count, same bytes
    summary = client.request("GET", f"/sessions/{session.id}")
    assert summary["worker"] == owner
    assert summary["n_steps"] == n_steps_before
    session.close()


def test_scan_survives_worker_death_exactly_or_503s(chaos_server, client):
    baseline = client.cluster_maps()

    os.kill(_worker_info(client)[1]["pid"], signal.SIGKILL)

    # immediately scan twice, so one round-robin turn lands on the dead
    # worker unless the supervisor has already taken it out: the scan
    # fails over to the survivor (exact) or 503s — never degrades
    for __ in range(2):
        status, headers, payload = _raw(
            chaos_server.url + "/cluster/maps", method="POST", body={}
        )
        if status == 200:
            assert payload["degraded"] is False
            assert payload["worker"] == 0
            assert payload["maps"] == baseline["maps"]
            assert payload["group_size"] == baseline["group_size"]
        else:
            assert status == 503, payload
            _assert_unavailable_envelope(headers, payload)

    # after the supervisor restarts the worker, results are exact again
    _wait_all_up(client)
    recovered = client.cluster_maps()
    assert recovered["degraded"] is False
    assert recovered["maps"] == baseline["maps"]
    assert recovered["group_size"] == baseline["group_size"]
    assert _worker_info(client)[1]["restarts"] >= 1
