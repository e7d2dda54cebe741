"""End-to-end tests: every endpoint through :class:`SubDExClient` against
an in-process server on an ephemeral port, including error paths."""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.history import SCHEMA_VERSION
from repro.server import ServerError, SubDExClient


class TestServiceEndpoints:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["datasets"] == ["tiny"]

    def test_metrics_reflect_traffic(self, client):
        client.health()
        session = client.create_session()
        session.apply_recommendation(1)
        metrics = client.metrics()
        requests = metrics["requests"]
        assert requests["total"] >= 3
        assert requests["by_endpoint"]["POST /sessions"]["count"] == 1
        latency = requests["by_endpoint"]["POST /sessions"]["latency_seconds"]
        assert latency["p50"] > 0.0 and latency["p95"] >= latency["p50"]
        assert metrics["sessions"]["live"] == 1
        assert metrics["caches"]["tiny"]["group"]["requests"] > 0

    def test_unmatched_route_404(self, client):
        with pytest.raises(ServerError) as exc:
            client.request("GET", "/frobnicate")
        assert exc.value.status == 404
        assert exc.value.code == "not_found"

    def test_method_not_allowed_405(self, client):
        with pytest.raises(ServerError) as exc:
            client.request("DELETE", "/sessions")
        assert exc.value.status == 405


class TestSessionLifecycle:
    def test_create_session_opening_step(self, client):
        session = client.create_session()
        step = session.step
        assert step["index"] == 1
        assert step["criteria"] == {"reviewer": {}, "item": {}}
        assert len(step["maps"]) == 3
        assert [r["number"] for r in step["recommendations"]] == [1, 2, 3]

    def test_create_with_starting_criteria(self, client):
        session = client.create_session(
            criteria={"reviewer": {"gender": "F"}}
        )
        assert session.step["criteria"]["reviewer"] == {"gender": "F"}

    def test_create_with_impossible_criteria_400(self, client):
        with pytest.raises(ServerError) as exc:
            client.create_session(criteria={"reviewer": {"gender": "XYZ"}})
        assert exc.value.status == 400
        assert exc.value.code == "empty_group"

    def test_create_unknown_dataset_400(self, client):
        with pytest.raises(ServerError) as exc:
            client.create_session(dataset="nope")
        assert exc.value.status == 400
        assert exc.value.code == "unknown_dataset"

    def test_list_and_summary(self, client):
        session = client.create_session()
        listed = client.sessions()
        assert [s["session_id"] for s in listed] == [session.id]
        summary = session.summary()
        assert summary["dataset"] == "tiny"
        assert summary["n_steps"] == 1
        assert summary["criteria"] == {"reviewer": {}, "item": {}}

    def test_close_then_gone_410(self, client):
        session = client.create_session()
        assert session.close()["closed"] is True
        with pytest.raises(ServerError) as exc:
            session.maps()
        assert exc.value.status == 410
        assert exc.value.code == "session_gone"
        with pytest.raises(ServerError) as exc:
            session.close()
        assert exc.value.status == 410

    def test_unknown_session_404(self, client):
        with pytest.raises(ServerError) as exc:
            client.request("GET", f"/sessions/{'f' * 32}/maps")
        assert exc.value.status == 404
        assert exc.value.code == "unknown_session"

    def test_session_cap_429(self, make_server):
        server = make_server(max_sessions=2)
        with SubDExClient(server.url) as client:
            client.create_session()
            client.create_session()
            with pytest.raises(ServerError) as exc:
                client.create_session()
            assert exc.value.status == 429
            assert exc.value.code == "too_many_sessions"

    def test_session_cap_429_body_carries_retry_after(self, make_server):
        server = make_server(max_sessions=1)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for _ in range(2):
                connection.request("POST", "/sessions", body=b"{}")
                response = connection.getresponse()
                body = json.loads(response.read())
            assert response.status == 429
            assert body["error"]["retry_after"] == 1
            assert response.getheader("Retry-After") == "1"
        finally:
            connection.close()

    def test_idle_eviction_410(self, make_server):
        server = make_server(max_sessions=4, session_ttl_seconds=0.05)
        with SubDExClient(server.url) as client:
            session = client.create_session()
            time.sleep(0.1)
            with pytest.raises(ServerError) as exc:
                session.maps()
            assert exc.value.status == 410
            assert "evicted" in exc.value.message


class TestExploration:
    def test_maps_endpoint_matches_step(self, client):
        session = client.create_session()
        payload = session.maps()
        assert payload["step_index"] == 1
        assert payload["maps"] == session.step["maps"]

    def test_recommendations_endpoint(self, client):
        session = client.create_session()
        recommendations = session.recommendations()
        assert recommendations == session.step["recommendations"]
        assert len(session.recommendations(o=2)) == 2

    def test_recommendations_bad_o_400(self, client):
        session = client.create_session()
        for bad in ("abc", "0"):
            with pytest.raises(ServerError) as exc:
                client.request(
                    "GET",
                    f"/sessions/{session.id}/recommendations",
                    query={"o": bad},
                )
            assert exc.value.status == 400

    def test_apply_recommendation(self, client):
        session = client.create_session()
        target = session.step["recommendations"][0]["target"]
        step = session.apply_recommendation(1)
        assert step["index"] == 2
        assert step["criteria"] == target
        assert step["operation"] is not None

    def test_apply_invalid_recommendation_400(self, client):
        session = client.create_session()
        for bad in (0, 99, "one", True):
            with pytest.raises(ServerError) as exc:
                session.apply_recommendation(bad)
            assert exc.value.status == 400
            assert exc.value.code == "invalid_recommendation"

    def test_apply_sql_edit(self, client):
        session = client.create_session()
        step = session.apply_sql("reviewer", "gender = 'F'")
        assert step["criteria"]["reviewer"] == {"gender": "F"}

    def test_apply_add_then_drop(self, client):
        session = client.create_session()
        step = session.apply_add("item", "city", "NYC")
        assert step["criteria"]["item"] == {"city": "NYC"}
        step = session.apply_drop("item", "city")
        assert step["criteria"]["item"] == {}

    def test_apply_empty_body_400(self, client):
        session = client.create_session()
        with pytest.raises(ServerError) as exc:
            client.request("POST", f"/sessions/{session.id}/apply", {})
        assert exc.value.status == 400

    def test_apply_two_directives_400(self, client):
        session = client.create_session()
        body = {
            "recommendation": 1,
            "sql": {"side": "reviewer", "where": "gender = 'F'"},
        }
        with pytest.raises(ServerError) as exc:
            client.request("POST", f"/sessions/{session.id}/apply", body)
        assert exc.value.status == 400
        assert exc.value.code == "invalid_edit"
        assert session.maps()["step_index"] == 1  # nothing was applied

    def test_history_round_trip(self, client):
        session = client.create_session()
        session.apply_recommendation(1)
        session.apply_sql("reviewer", "gender = 'M'")
        log = session.history()
        assert log["schema_version"] == SCHEMA_VERSION
        assert log["dataset"] == "tiny"
        assert log["mode"] == "user-driven"
        assert len(log["steps"]) == 3
        assert log["metadata"]["session_id"] == session.id
        # the payload is a loadable exploration log
        from repro.core.history import ExplorationLog

        loaded = ExplorationLog.from_json(json.dumps(log))
        assert len(loaded.steps) == 3


class TestWireErrors:
    def test_oversized_body_413(self, make_server):
        server = make_server(max_body_bytes=256)
        with SubDExClient(server.url) as client:
            with pytest.raises(ServerError) as exc:
                client.request(
                    "POST", "/sessions", {"criteria": {"reviewer": {"x": "y" * 512}}}
                )
            assert exc.value.status == 413
            assert exc.value.code == "payload_too_large"

    def test_invalid_json_400(self, server):
        connection = http.client.HTTPConnection(*server.server_address)
        try:
            connection.request(
                "POST",
                "/sessions",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["code"] == "invalid_json"
        finally:
            connection.close()

    def test_non_object_body_400(self, client):
        with pytest.raises(ServerError) as exc:
            client.request("POST", "/sessions", [1, 2, 3])
        assert exc.value.status == 400
        assert exc.value.code == "invalid_json"


class TestConcurrentClients:
    def test_eight_users_identical_opening_steps(self, server):
        """8 concurrent users: everyone gets the single-thread answer."""
        n_users = 8
        barrier = threading.Barrier(n_users)

        def explore(user: int):
            with SubDExClient(server.url) as client:
                barrier.wait()
                session = client.create_session()
                opening = [
                    (rm["side"], rm["attribute"], rm["dimension"])
                    for rm in session.step["maps"]
                ]
                step = session.apply_recommendation(1)
                session.history()
                session.close()
                return opening, step["index"]

        with ThreadPoolExecutor(max_workers=n_users) as pool:
            results = [
                f.result()
                for f in [pool.submit(explore, u) for u in range(n_users)]
            ]

        openings = {tuple(opening) for opening, _ in results}
        assert len(openings) == 1  # identical across all users
        assert all(index == 2 for _, index in results)
        # the shared per-dataset cache amortised the identical opening steps
        metrics = SubDExClient(server.url).metrics()
        assert metrics["caches"]["tiny"]["result"]["hits"] > 0
        assert metrics["sessions"]["created"] == n_users
        assert metrics["sessions"]["closed"] == n_users
