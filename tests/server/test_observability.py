"""Server observability: trace headers, debug breakdowns, scrape formats."""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.server import ServerError, SubDExClient


def raw_get(server, path, headers=None):
    """One GET outside the client, returning (status, headers, body)."""
    connection = http.client.HTTPConnection(*server.server_address)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        connection.close()


class TestTraceHeaders:
    def test_every_response_carries_a_trace_id(self, client, server):
        client.health()
        assert client.last_trace_id is not None
        assert len(client.last_trace_id) == 32

    def test_client_supplied_trace_id_is_adopted(self, server):
        with SubDExClient(server.url, trace_id="deadbeef00112233") as client:
            client.health()
            assert client.last_trace_id == "deadbeef00112233"

    def test_malformed_trace_id_is_ignored(self, server):
        status, headers, __ = raw_get(
            server, "/health", headers={"X-Trace-Id": "not valid!!"}
        )
        assert status == 200
        assert headers["X-Trace-Id"] != "not valid!!"

    def test_server_errors_quote_the_trace_id(self, client):
        with pytest.raises(ServerError) as exc:
            client.request("GET", "/sessions/" + "0" * 32)
        assert exc.value.trace_id is not None
        assert f"[trace {exc.value.trace_id}]" in str(exc.value)

    def test_tracing_disabled_omits_the_header(self, make_server):
        server = make_server(tracing_enabled=False)
        status, headers, __ = raw_get(server, "/health")
        assert status == 200
        assert "X-Trace-Id" not in headers
        assert server.trace_buffer.total_recorded == 0


class TestDebugMode:
    def test_debug_attaches_a_span_tree(self, client):
        data = client.request(
            "POST", "/sessions?debug=1", {"dataset": "tiny"}
        )
        debug = data["debug"]
        assert debug["trace_id"] == client.last_trace_id
        tree = debug["spans"]
        assert tree["name"] == "request"
        assert tree["attributes"]["route"] == "POST /sessions"
        names = {child["name"] for child in tree["children"]}
        assert "session.step" in names

    def test_debug_span_durations_sum_close_to_wall_time(self, client):
        started = time.perf_counter()
        data = client.request(
            "POST", "/sessions?debug=1", {"dataset": "tiny"}
        )
        wall_ms = (time.perf_counter() - started) * 1000.0
        tree = data["debug"]["spans"]
        root_ms = tree["duration_ms"]
        # the root span covers the handler, which dominates the request:
        # it must account for most of the observed wall time and its
        # children must never sum past their parent
        assert root_ms <= wall_ms
        assert root_ms >= 0.1

        def max_child_sum(node):
            total = sum(c["duration_ms"] for c in node["children"])
            assert total <= node["duration_ms"] * 1.10
            for child in node["children"]:
                max_child_sum(child)

        max_child_sum(tree)

    def test_without_debug_no_breakdown(self, client):
        data = client.request("POST", "/sessions", {"dataset": "tiny"})
        assert "debug" not in data


class TestDebugTracesEndpoint:
    def test_recent_traces_most_recent_first(self, client):
        client.health()
        client.request("GET", "/sessions")
        data = client.request("GET", "/debug/traces")
        assert data["tracing_enabled"] is True
        assert data["returned"] >= 2
        routes = [
            t["spans"][0]["attributes"]["route"] for t in data["traces"]
        ]
        assert routes[0] == "GET /sessions"  # the most recent completed

    def test_min_ms_and_limit_filters(self, client):
        for _ in range(3):
            client.health()
        data = client.request(
            "GET", "/debug/traces", query={"limit": 1, "min_ms": 0}
        )
        assert data["returned"] == 1
        data = client.request(
            "GET", "/debug/traces", query={"min_ms": 60_000}
        )
        assert data["returned"] == 0

    def test_bad_parameters_400(self, client):
        for query in ({"min_ms": "soon"}, {"limit": "few"}, {"limit": 0}):
            with pytest.raises(ServerError) as exc:
                client.request("GET", "/debug/traces", query=query)
            assert exc.value.status == 400

    def test_ring_eviction_is_visible(self, make_server):
        server = make_server(trace_buffer_size=2)
        with SubDExClient(server.url) as client:
            for _ in range(4):
                client.health()
            data = client.request("GET", "/debug/traces")
        # the 4 health checks plus this request overflowed the 2-slot ring
        assert data["returned"] <= 2
        assert data["total_recorded"] >= 4


class TestMetricsFormats:
    def test_json_metrics_are_strictly_valid(self, client, server):
        client.health()
        __, __, body = raw_get(server, "/metrics")

        def reject(constant):
            raise ValueError(f"invalid JSON constant {constant!r}")

        payload = json.loads(body.decode(), parse_constant=reject)
        endpoint = payload["requests"]["by_endpoint"]["GET /health"]
        assert endpoint["latency_seconds"]["p95"] > 0.0

    def test_empty_reservoir_renders_null_not_nan(self):
        # regression: an endpoint snapshot with an empty latency reservoir
        # used to emit float("nan"), which json.dumps writes as the bare
        # NaN token strict JSON parsers reject
        from repro.server.metrics import _EndpointStats

        snapshot = _EndpointStats(maxlen=4).snapshot()
        encoded = json.dumps(snapshot)
        assert "NaN" not in encoded

        def reject(constant):
            raise ValueError(f"invalid JSON constant {constant!r}")

        decoded = json.loads(encoded, parse_constant=reject)
        assert decoded["latency_seconds"] == {
            "mean": None, "p50": None, "p95": None, "p99": None,
        }

    def test_prometheus_exposition(self, client, server):
        client.health()
        client.create_session()
        status, headers, body = raw_get(server, "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "# TYPE subdex_requests_total counter" in text
        assert "# TYPE subdex_request_seconds histogram" in text
        assert 'subdex_requests_total{endpoint="GET /health",status="200"} 1' in text
        assert 'subdex_sessions{kind="live"} 1' in text
        assert 'subdex_cache_events_total{dataset="tiny",cache="group",kind="hits"}' in text
        assert 'subdex_breaker_open{dataset="tiny"} 0' in text
        assert 'subdex_traces{kind="recorded"}' in text
        for kind in (
            "candidates_cube",
            "candidates_sibling",
            "candidates_containment",
            "candidates_delta",
            "candidates_direct",
        ):
            assert (
                f'subdex_index_events_total{{dataset="tiny",kind="{kind}"}}'
                in text
            ), kind

    def test_index_section_reports_every_route(self, client):
        client.create_session()
        index = client.metrics()["caches"]["tiny"]["index"]
        assert {
            "candidates_cube",
            "candidates_sibling",
            "candidates_containment",
            "candidates_delta",
            "candidates_direct",
        } <= set(index)
        assert index["candidates_cube"] > 0

    def test_unknown_format_400(self, client):
        with pytest.raises(ServerError) as exc:
            client.request("GET", "/metrics", query={"format": "xml"})
        assert exc.value.status == 400

    def test_flight_waits_reported_in_cache_snapshot(self, client):
        client.create_session()
        metrics = client.metrics()
        assert metrics["caches"]["tiny"]["flight_waits"] == 0


class TestTraceFileSink:
    def test_trace_file_receives_every_request(self, tmp_path, make_server):
        path = tmp_path / "traces.jsonl"
        server = make_server(trace_file=str(path))
        with SubDExClient(server.url) as client:
            client.health()
            client.request("GET", "/sessions")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        routes = [
            json.loads(line)["spans"][0]["attributes"]["route"]
            for line in lines
        ]
        assert routes == ["GET /health", "GET /sessions"]


class TestTraceSearchEndpoint:
    """0-worker ``/debug/traces`` search + full-tree fetch parity."""

    def test_filters_and_full_tree_fetch(self, client):
        client.health()
        session = client.create_session()
        client.request("GET", f"/sessions/{session.id}/maps")

        hits = client.traces(op="maps")
        assert hits["returned"] >= 1
        hit = hits["traces"][0]
        assert hit["route"] == "GET /sessions/{id}/maps"

        record = client.trace(hit["trace_id"])
        assert record["trace_id"] == hit["trace_id"]
        assert record["workers"] == []  # no fleet, same record shape
        assert record["partial"] is False
        assert record["tree"]["name"] == "request"
        assert record["tree"]["attributes"]["route"] == hit["route"]

    def test_dataset_and_status_filters(self, client):
        client.create_session()
        assert client.traces(dataset="tiny")["returned"] >= 1
        assert client.traces(dataset="elsewhere")["returned"] == 0
        assert client.traces(status="error")["returned"] == 0
        assert client.traces(status="ok")["returned"] >= 1
        assert client.traces(status="201")["returned"] >= 1

    def test_sampling_counters_exposed(self, client):
        client.health()
        sampling = client.traces()["sampling"]
        assert sampling["kept"] >= 1
        assert sampling["dropped"] == 0
        assert sampling["sample_rate"] == 1.0
        assert "kept_by_reason" in sampling

    def test_invalid_status_filter_400(self, client):
        with pytest.raises(ServerError) as exc:
            client.request(
                "GET", "/debug/traces", query={"status": "teapot"}
            )
        assert exc.value.status == 400

    def test_unknown_trace_404(self, client):
        with pytest.raises(ServerError) as exc:
            client.trace("0" * 32)
        assert exc.value.status == 404
        assert exc.value.code == "unknown_trace"

    def test_sampled_out_traces_are_absent(self, make_server):
        server = make_server(trace_sample_rate=0.0)
        with SubDExClient(server.url) as client:
            client.health()
            trace_id = client.last_trace_id
            with pytest.raises(ServerError) as exc:
                client.trace(trace_id)
            assert exc.value.status == 404
            sampling = client.traces()["sampling"]
            assert sampling["dropped"] >= 1


class TestOpenMetricsFormat:
    def test_openmetrics_content_type_and_eof(self, client, server):
        client.health()
        status, headers, body = raw_get(
            server, "/metrics?format=openmetrics"
        )
        assert status == 200
        assert headers["Content-Type"].startswith(
            "application/openmetrics-text"
        )
        text = body.decode()
        assert text.endswith("\n# EOF\n")
        assert "# TYPE subdex_requests_total counter" in text

    def test_prometheus_format_carries_exemplars(self, client, server):
        client.create_session()
        __, __, body = raw_get(server, "/metrics?format=prometheus")
        text = body.decode()
        assert '} # {trace_id="' not in text  # exemplars have values too
        assert '# {trace_id="' in text
        # exemplars appear only on _bucket sample lines
        for line in text.splitlines():
            if '# {trace_id="' in line:
                assert "_bucket{" in line

    def test_collector_counters_in_scrape(self, client, server):
        client.health()
        __, __, body = raw_get(server, "/metrics?format=prometheus")
        text = body.decode()
        assert 'subdex_traces{kind="collect_kept"}' in text
        assert 'subdex_traces{kind="collect_stored"}' in text


class TestTraceFileRotation:
    def test_server_rotates_trace_file(self, tmp_path, make_server):
        path = tmp_path / "traces.jsonl"
        server = make_server(
            trace_file=str(path),
            trace_file_max_mb=2048 / (1024 * 1024),  # 2 KiB budget
        )
        with SubDExClient(server.url) as client:
            for _ in range(30):
                client.health()
        assert server.trace_file_sink.rotations >= 1
        assert path.exists()
        assert (tmp_path / "traces.jsonl.1").exists()
        for line in path.read_text().splitlines():
            json.loads(line)  # rotation never tears a line
