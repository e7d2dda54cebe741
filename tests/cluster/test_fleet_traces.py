"""Fleet trace collection in a 2-worker deployment.

The acceptance path: one request produces ONE stitched tree — front
spans (``request`` → ``worker.rpc``) with the serving worker's shipped
fragment (``worker.request`` → ``engine.*``) re-parented under its rpc
span, per-worker pid attribution, ``partial: true`` when a worker died mid-request, and
exemplars on the OpenMetrics exposition that resolve back to collected
traces.
"""

from __future__ import annotations

import json
import os
import re
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.engine import SubDEx, SubDExConfig
from repro.server import ServerConfig, SubDExClient, build_server
from repro.server.client import RetryPolicy, ServerError


def start_server(db_factory, tmp_path, **config_overrides):
    config = {
        "workers": 2,
        "worker_heartbeat_seconds": 0.15,
        "checkpoint_dir": str(tmp_path / "checkpoints"),
        **config_overrides,
    }
    server = build_server(
        {"synthetic": lambda: SubDEx(db_factory(seed=3), SubDExConfig())},
        config=ServerConfig(**config),
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@pytest.fixture()
def fleet_server(db_factory, tmp_path):
    server = start_server(db_factory, tmp_path)
    yield server
    server.graceful_shutdown(drain_seconds=5.0)


@pytest.fixture()
def client(fleet_server):
    with SubDExClient(fleet_server.url) as instance:
        yield instance


def _raw(url: str, method: str = "GET", body=None):
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


def _worker_pids(client) -> dict[int, int]:
    return {w["worker"]: w["pid"] for w in client.workers()["workers"]}


def _names(node, out=None):
    out = out if out is not None else []
    out.append(node["name"])
    for child in node["children"]:
        _names(child, out)
    return out


def _find_all(node, name):
    found = [node] if node["name"] == name else []
    for child in node["children"]:
        found.extend(_find_all(child, name))
    return found


class TestStitchedTrees:
    def test_scatter_scan_is_one_stitched_tree(self, client):
        pids = _worker_pids(client)
        # a fresh pool's scans go round-robin: worker 0, then worker 1
        for worker in (0, 1):
            assert client.cluster_maps()["worker"] == worker
            record = client.trace(client.last_trace_id)

            assert record["partial"] is False
            assert record["route"] == "POST /cluster/maps"
            # one worker served the scan: its fragment, its real pid
            (meta,) = record["workers"]
            assert meta["worker"] == worker
            assert meta["pid"] == pids[worker]
            assert meta["matched"] is True
            assert isinstance(meta["clock_skew_ms"], float)

            tree = record["tree"]
            assert tree["name"] == "request"
            assert "cluster.scatter" not in _names(tree)
            (rpc,) = _find_all(tree, "worker.rpc")
            assert rpc in tree["children"]
            assert rpc["attributes"]["worker"] == worker
            (fragment_root,) = rpc["children"]
            assert fragment_root["name"] == "worker.request"
            assert fragment_root["attributes"]["worker"] == worker
            assert fragment_root["attributes"]["pid"] == pids[worker]
            assert "engine.scan" in _names(fragment_root)

    def test_session_step_trace_carries_worker_engine_spans(self, client):
        session = client.create_session()
        record = client.trace(client.last_trace_id)
        assert record["route"] == "POST /sessions"
        assert record["partial"] is False
        (meta,) = record["workers"]
        owner = {
            s["session_id"]: s["worker"] for s in client.sessions()
        }[session.id]
        assert meta["worker"] == owner
        names = _names(record["tree"])
        assert "worker.rpc" in names
        assert "worker.request" in names
        assert "phase.scan" in names  # the engine ran inside the worker
        session.close()

    def test_search_and_headers(self, fleet_server, client):
        client.cluster_maps()
        scan_trace = client.last_trace_id
        listing = client.traces(op="cluster/maps")
        assert listing["tracing_enabled"] is True
        assert listing["returned"] >= 1
        assert scan_trace in {t["trace_id"] for t in listing["traces"]}
        assert listing["sampling"]["kept"] >= 1
        # the header, the search hit and the fetch all name the same trace
        __, headers, __ = _raw(fleet_server.url + "/cluster/maps",
                               method="POST", body={})
        assert client.trace(headers["X-Trace-Id"])["trace_id"] == headers[
            "X-Trace-Id"
        ]

    def test_unknown_trace_is_a_clean_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.trace("f" * 32)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_trace"


class TestFaultInjection:
    def test_killed_worker_yields_partial_trace_not_hang(
        self, db_factory, tmp_path
    ):
        # a slow heartbeat keeps the killed worker marked up, so the next
        # scan's round-robin turn reaches it and fails over
        server = start_server(
            db_factory, tmp_path, worker_heartbeat_seconds=30.0
        )
        try:
            with SubDExClient(server.url) as client:
                survivor = client.cluster_maps()["worker"]
                killed = 1 - survivor
                os.kill(_worker_pids(client)[killed], signal.SIGKILL)
                time.sleep(0.1)

                # the scan must answer promptly either way; its trace must
                # exist and be explicit about the missing worker
                try:
                    assert client.cluster_maps()["worker"] == survivor
                except ServerError as error:
                    assert error.status == 503
                record = client.trace(client.last_trace_id)
                assert record is not None
                assert record["partial"] is True
                claimed = {
                    w["worker"] for w in record["workers"] if w["matched"]
                }
                assert killed not in claimed  # it never shipped a fragment
        finally:
            server.graceful_shutdown(drain_seconds=5.0)

    def test_error_messages_quote_resolvable_trace_ids(
        self, fleet_server, client
    ):
        session = client.create_session()
        owner = {
            s["session_id"]: s["worker"] for s in client.sessions()
        }[session.id]
        os.kill(_worker_pids(client)[owner], signal.SIGKILL)
        time.sleep(0.1)

        impatient = SubDExClient(
            fleet_server.url, retry=RetryPolicy(max_attempts=1)
        )
        with pytest.raises(ServerError) as excinfo:
            impatient.request("GET", f"/sessions/{session.id}/maps")
        impatient.close()
        error = excinfo.value
        assert error.status == 503
        assert error.trace_id is not None
        assert f"[trace {error.trace_id}]" in str(error)
        # the quoted id resolves to the fleet-assembled trace of exactly
        # the failed request
        record = client.trace(error.trace_id)
        assert record["partial"] is True
        assert record["spans"][0]["attributes"]["status"] == 503


class TestTailSampling:
    def test_errors_kept_100_percent_while_ok_dropped(
        self, db_factory, tmp_path
    ):
        server = start_server(db_factory, tmp_path, trace_sample_rate=0.0)
        try:
            with SubDExClient(server.url) as client:
                for _ in range(4):
                    client.cluster_maps()  # healthy: sampled out at 0.0
                pids = _worker_pids(client)
                os.kill(pids[0], signal.SIGKILL)
                os.kill(pids[1], signal.SIGKILL)
                time.sleep(0.1)
                failures = 0
                for _ in range(5):
                    status, __, __ = _raw(
                        server.url + "/cluster/maps", method="POST", body={}
                    )
                    if status >= 500:
                        failures += 1
                assert failures == 5

                listing = client.traces(op="cluster/maps")
                statuses = [
                    t["spans"][0]["attributes"].get("status")
                    for t in listing["traces"]
                ]
                # every failed scan kept, every healthy one sampled out
                assert statuses.count(503) == 5
                assert 200 not in statuses
                sampling = listing["sampling"]
                assert sampling["kept_by_reason"].get("error", 0) >= 5
                assert sampling["dropped"] >= 4
        finally:
            server.graceful_shutdown(drain_seconds=5.0)


class TestOpenMetricsExemplars:
    def test_prometheus_exposition_exemplars_resolve(
        self, fleet_server, client
    ):
        session = client.create_session()
        client.request("GET", f"/sessions/{session.id}/maps")
        body = urllib.request.urlopen(
            fleet_server.url + "/metrics?format=prometheus", timeout=30
        ).read().decode()
        assert body.rstrip().endswith("# EOF")
        exemplar_ids = set(
            re.findall(
                r'subdex_slo_request_seconds_bucket\{[^}]*\} \S+'
                r' # \{trace_id="([0-9a-f]+)"\}',
                body,
            )
        )
        assert exemplar_ids, "no exemplars on SLO request buckets"
        for trace_id in exemplar_ids:
            record = client.trace(trace_id)
            assert record["trace_id"] == trace_id
            assert record["tree"]["name"] == "request"
        session.close()
