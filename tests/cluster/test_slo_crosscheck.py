"""``GET /slo`` equals an offline recomputation from the client's own log.

A fixed request script runs against a fresh 0-worker and 2-worker server.
Each response's route label, status and ``X-Server-Ms`` (the handling time
the server fed its own windows) goes into a fresh :class:`SLOTracker`
built with the server's :class:`SLOConfig`; the offline ``total`` window
must then equal the server's for every endpoint class the script touched.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.engine import SubDEx, SubDExConfig
from repro.server import ServerConfig, SubDExClient, build_server
from repro.server.client import RetryPolicy, ServerError
from repro.slo import SLOTracker

UNKNOWN_SID = "0" * 32


@pytest.fixture(params=[0, 2], ids=["workers0", "workers2"])
def server(request, db_factory):
    factories = {"synthetic": lambda: SubDEx(db_factory(seed=3), SubDExConfig())}
    server = build_server(
        factories, config=ServerConfig(workers=request.param)
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server
    server.graceful_shutdown(drain_seconds=5.0)


def _run_script(client: SubDExClient, tracker: SLOTracker) -> list[int]:
    """Issue the fixed script; feed each response into ``tracker``."""
    statuses: list[int] = []

    def call(label, method, path, body=None, query=None):
        try:
            data = client.request(method, path, body, query)
            status = 200
        except ServerError as error:
            data, status = {}, error.status
        quality = data.get("quality")
        tracker.ingest(
            label,
            status,
            client.last_server_ms / 1000.0,
            degraded=bool(data.get("degraded")),
            rung=quality.get("rung") if isinstance(quality, dict) else None,
        )
        statuses.append(status)
        return data

    created = call("POST /sessions", "POST", "/sessions", {"dataset": "synthetic"})
    base = f"/sessions/{created['session_id']}"
    call("GET /sessions/{id}/maps", "GET", f"{base}/maps")
    recommendations = "GET /sessions/{id}/recommendations"
    call(recommendations, "GET", f"{base}/recommendations")
    call(recommendations, "GET", f"{base}/recommendations",
         query={"budget_ms": 5000})
    call("POST /sessions/{id}/apply", "POST", f"{base}/apply",
         {"recommendation": 1})
    call("GET /sessions/{id}/history", "GET", f"{base}/history")
    call("GET /sessions/{id}", "GET", f"/sessions/{UNKNOWN_SID}")
    return statuses


def test_slo_scorecard_matches_offline_recomputation(server):
    tracker = SLOTracker(server.slo.config)
    with SubDExClient(server.url, retry=RetryPolicy(max_attempts=1)) as client:
        statuses = _run_script(client, tracker)
        card = client.slo()

    assert statuses[-1] == 404
    assert all(200 <= status < 300 for status in statuses[:-1]), statuses

    offline = tracker.scorecard()
    touched = [
        cls
        for cls, entry in offline["classes"].items()
        if entry["windows"]["total"]["count"]
    ]
    assert sorted(touched) == ["reads", "recommendations", "steps"]
    for cls in touched:
        ours = dict(offline["classes"][cls]["windows"]["total"])
        theirs = dict(card["classes"][cls]["windows"]["total"])
        # X-Server-Ms carries the handling time to the microsecond
        assert ours.pop("mean_latency_ms") == pytest.approx(
            theirs.pop("mean_latency_ms"), abs=1e-3
        )
        assert ours == theirs, cls
        assert offline["classes"][cls]["rungs"] == card["classes"][cls]["rungs"]

    if server.cluster is None:
        assert "cluster" not in card
    else:
        fleet = card["cluster"]
        assert fleet["workers"] == [0, 1] and fleet["unreachable"] == []
        assert fleet["fleet"]["classes"]["steps"]["windows"]["total"]["count"] > 0
