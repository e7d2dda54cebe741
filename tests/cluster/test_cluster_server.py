"""End-to-end cluster serving: ``--workers 2`` answers byte-for-byte what
the single-process server answers, and the cluster surfaces (worker
states, worker-labelled metrics, per-worker span summaries, merged
session lists) are wired through the front."""

from __future__ import annotations

import http.client
import json
import os
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster.shm import SEGMENT_PREFIX
from repro.core.engine import SubDEx, SubDExConfig
from repro.server import ServerConfig, SubDExClient, build_server
from repro.server.protocol import criteria_to_json


def _factories(make_db):
    return {"synthetic": lambda: SubDEx(make_db(seed=3), SubDExConfig())}


def _start(server):
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@pytest.fixture(scope="module")
def single_server(db_factory):
    server = _start(
        build_server(
            _factories(db_factory), config=ServerConfig(workers=0)
        )
    )
    yield server
    server.graceful_shutdown(drain_seconds=5.0)


@pytest.fixture(scope="module")
def sharded_server(db_factory):
    server = _start(
        build_server(
            _factories(db_factory), config=ServerConfig(workers=2)
        )
    )
    yield server
    server.graceful_shutdown(drain_seconds=5.0)
    leftover = [
        n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)
    ]
    assert leftover == []  # shutdown unlinked every segment


@pytest.fixture(scope="module")
def single(single_server):
    with SubDExClient(single_server.url) as client:
        yield client


@pytest.fixture(scope="module")
def sharded(sharded_server):
    with SubDExClient(sharded_server.url) as client:
        yield client


def test_health_reports_cluster(single, sharded):
    cluster = sharded.health()["cluster"]
    assert cluster["workers"] == 2 and cluster["up"] == 2
    assert "cluster" not in single.health()


def test_front_keepalive_reads_skip_the_delayed_ack(sharded_server):
    # the N-worker front shares the handler: no 40 ms delayed-ACK stall
    host, port = sharded_server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    samples = []
    try:
        for __ in range(20):
            start = time.perf_counter()
            connection.request("GET", "/health")
            response = connection.getresponse()
            response.read()
            samples.append((time.perf_counter() - start) * 1000.0)
            assert response.status == 200
    finally:
        connection.close()
    assert statistics.median(samples) < 10.0


def test_workers_endpoint(single, sharded):
    info = sharded.workers()
    assert info["enabled"] is True
    assert info["n_workers"] == 2 and "n_shards" not in info
    assert [w["state"] for w in info["workers"]] == ["up", "up"]
    assert all(w["alive"] for w in info["workers"])
    mine = single.workers()
    assert mine["enabled"] is False and mine["workers"] == []


def test_cluster_maps_byte_identical(single, sharded):
    mine = single.cluster_maps()
    theirs = sharded.cluster_maps()
    assert mine["group_size"] == theirs["group_size"]
    assert mine["maps"] == theirs["maps"]
    assert mine["degraded"] is False and theirs["degraded"] is False
    assert mine["worker"] is None and theirs["worker"] in (0, 1)
    assert "scatter" not in theirs


def test_generated_scans_byte_identical(
    single_server, sharded_server, db_factory, criteria_factory, criteria_case
):
    criteria = criteria_factory(db_factory(seed=3), *criteria_case)
    body = {"criteria": criteria_to_json(criteria)}
    status, mine = _raw(single_server.url + "/cluster/maps", "POST", body)
    assert status == 200
    status, theirs = _raw(sharded_server.url + "/cluster/maps", "POST", body)
    assert status == 200
    mine, theirs = json.loads(mine), json.loads(theirs)
    assert mine.pop("worker") is None and theirs.pop("worker") in (0, 1)
    # same keys, same order, same bytes once the serving worker is dropped
    assert json.dumps(mine) == json.dumps(theirs)


def test_cluster_maps_with_criteria_and_k(single, sharded):
    criteria = {"reviewer": {"gender": "M"}}
    mine = single.cluster_maps(criteria=criteria, k=2)
    theirs = sharded.cluster_maps(criteria=criteria, k=2)
    assert len(theirs["maps"]) == 2
    assert mine["maps"] == theirs["maps"]


def _raw(url, method="GET", body=None):
    """(status, body bytes) of one request, error statuses included."""
    request = urllib.request.Request(
        url,
        data=None if body is None else json.dumps(body).encode(),
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def test_session_flow_byte_identical(
    single_server, sharded_server, single, sharded, strip
):
    mine, theirs = single.create_session(), sharded.create_session()
    for path in ("maps", "recommendations", "history"):
        a = single.request("GET", f"/sessions/{mine.id}/{path}")
        b = sharded.request("GET", f"/sessions/{theirs.id}/{path}")
        assert strip(a) == strip(b), f"{path} differs"
    a = single.request("POST", f"/sessions/{mine.id}/apply", {"recommendation": 1})
    b = sharded.request("POST", f"/sessions/{theirs.id}/apply", {"recommendation": 1})
    assert strip(a) == strip(b)
    # and after the step, the whole history still matches
    a = single.request("GET", f"/sessions/{mine.id}/history")
    b = sharded.request("GET", f"/sessions/{theirs.id}/history")
    assert strip(a) == strip(b)
    # the summary matches once the owning worker's tag is dropped
    a = single.request("GET", f"/sessions/{mine.id}")
    b = sharded.request("GET", f"/sessions/{theirs.id}")
    assert "worker" not in a and b.pop("worker") in (0, 1)
    assert strip(a) == strip(b)
    # failed ops answer the same status and body bytes
    for method, path, body, status, code in (
        ("GET", "/sessions/" + "0" * 32, None, 404, "unknown_session"),
        ("POST", "/sessions/{}/apply", {"recommendation": 999},
         400, "invalid_recommendation"),
        ("POST", "/sessions/{}/apply", {"recommendation": 1, "sql": "x"},
         400, "invalid_edit"),
    ):
        a = _raw(single_server.url + path.format(mine.id), method, body)
        b = _raw(sharded_server.url + path.format(theirs.id), method, body)
        assert a == b, f"{code} differs"
        assert a[0] == status
        assert json.loads(a[1])["error"]["code"] == code
    a = single.request("DELETE", f"/sessions/{mine.id}")
    b = sharded.request("DELETE", f"/sessions/{theirs.id}")
    assert a["closed"] is True
    assert strip(a) == strip(b)


def test_sessions_list_carries_worker_tag(sharded):
    session = sharded.create_session()
    try:
        listed = {s["session_id"]: s for s in sharded.sessions()}
        assert session.id in listed
        assert listed[session.id]["worker"] in (0, 1)
        summary = sharded.request("GET", f"/sessions/{session.id}")
        assert summary["worker"] == listed[session.id]["worker"]
    finally:
        session.close()


def test_metrics_have_worker_families(sharded_server, sharded):
    session = sharded.create_session()
    try:
        text = urllib.request.urlopen(
            sharded_server.url + "/metrics?format=prometheus"
        ).read().decode()
    finally:
        session.close()
    for family in (
        "subdex_worker_up",
        "subdex_worker_restarts_total",
        "subdex_worker_rpcs_total",
        "subdex_worker_sessions",
    ):
        assert family in text
    assert 'subdex_worker_up{worker="0"} 1' in text
    assert 'subdex_worker_up{worker="1"} 1' in text
    json_payload = sharded.metrics()
    assert len(json_payload["cluster"]["workers"]) == 2


def test_debug_spans_include_worker_sections(sharded):
    # touch both workers first (scans alternate) so each has spans to report
    sharded.cluster_maps()
    sharded.cluster_maps()
    spans = sharded.spans_summary()
    assert sorted(spans["workers"]) == ["0", "1"]
    front_spans = {entry["name"] for entry in spans["operations"]}
    assert "worker.rpc" in front_spans
    assert "cluster.scatter" not in front_spans
    for stats in spans["workers"].values():
        worker_ops = {entry["name"] for entry in stats["operations"]}
        assert "worker.request" in worker_ops


def test_unknown_session_404_from_worker(sharded):
    from repro.server import ServerError

    with pytest.raises(ServerError) as info:
        sharded.request("GET", "/sessions/" + "0" * 32)
    assert info.value.status == 404


def test_session_ops_honor_deadline_header(sharded):
    """X-Deadline-Ms rides the IPC envelope to the routed worker.

    Regression: deadline propagation called the ``Deadline.remaining``
    property, so *every* deadlined request 500ed in cluster mode.
    """
    from repro.server import ServerError

    created = sharded.request("POST", "/sessions", {}, deadline_ms=60_000)
    sid = created["session_id"]
    try:
        maps = sharded.request(
            "GET", f"/sessions/{sid}/maps", deadline_ms=60_000
        )
        assert maps["session_id"] == sid
    finally:
        sharded.request("DELETE", f"/sessions/{sid}")
    # an already-spent budget unwinds as a typed 504, not a hang or a 500
    with pytest.raises(ServerError) as info:
        sharded.request("POST", "/sessions", {}, deadline_ms=1)
    assert info.value.status == 504
    assert info.value.code == "deadline_exceeded"
