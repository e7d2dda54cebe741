"""Performance introspection endpoints under concurrent load.

Exercises the tentpole surfaces end-to-end: ``GET /debug/profile`` while
8 client threads drive uncached engine work (the profile must show
``repro.core`` frames), ``GET /debug/spans/summary`` cost accounting,
process-level collectors in both expositions, ``X-Server-Ms`` /
``server_ms`` surfacing, and ``SubDExClient.explain``.
"""

from __future__ import annotations

import threading

import pytest

from repro.server import SubDExClient
from repro.server.client import RetryPolicy, ServerError


def _prometheus_text(client: SubDExClient) -> str:
    return client.request(
        "GET", "/metrics", query={"format": "prometheus"}
    )["text"]


def _load_worker(url: str, barrier: threading.Barrier, stop: threading.Event):
    """Drive uncached engine work: fresh sessions, applied recommendations.

    Fresh sessions with applied operations defeat the result cache — a
    cache-hit-only load would leave nothing of the engine on the sampled
    stacks.
    """
    with SubDExClient(url) as client:
        barrier.wait(timeout=10.0)
        while not stop.is_set():
            try:
                session = client.create_session(dataset="tiny")
                for number in (1, 2):
                    try:
                        session.apply_recommendation(number)
                    except ServerError:
                        break
                session.close()
            except ServerError:
                # racing workers can trip the live-session cap (429);
                # back off and keep hammering
                stop.wait(0.05)


@pytest.fixture
def under_load(server):
    """8 worker threads hammering the server for the test's duration."""
    barrier = threading.Barrier(9)
    stop = threading.Event()
    workers = [
        threading.Thread(
            target=_load_worker,
            args=(server.url, barrier, stop),
            daemon=True,
        )
        for __ in range(8)
    ]
    for worker in workers:
        worker.start()
    barrier.wait(timeout=10.0)
    yield server
    stop.set()
    for worker in workers:
        worker.join(timeout=10.0)


class TestDebugProfile:
    def test_profile_under_load_shows_engine_frames(self, under_load):
        with SubDExClient(under_load.url) as client:
            collapsed = client.profile(seconds=1.0, interval_ms=2.0)
        assert isinstance(collapsed, str) and collapsed.strip()
        # collapsed line format: "frame;frame;leaf count"
        first = collapsed.splitlines()[0]
        frames, count = first.rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in frames or ":" in frames
        assert "repro.core" in collapsed, (
            "no engine frames in profile under load:\n" + collapsed[:2000]
        )
        # the sampler must be gone once the request completed
        assert not any(
            "profiler" in thread.name for thread in threading.enumerate()
        )

    def test_profile_json_format(self, client):
        payload = client.profile(seconds=0.2, fmt="json")
        assert payload["n_samples"] >= 1
        assert payload["interval_seconds"] == pytest.approx(0.005)
        assert isinstance(payload["stacks"], list)
        assert client.last_server_ms is not None

    def test_concurrent_profile_conflicts(self, server):
        results: dict[str, object] = {}

        def long_profile():
            with SubDExClient(server.url) as first:
                results["first"] = first.profile(seconds=1.2)

        thread = threading.Thread(target=long_profile, daemon=True)
        thread.start()
        # wait until the first profile is actually sampling — the server
        # runs in-process, so its profiler daemon thread is visible here
        pause = threading.Event()
        for __ in range(500):
            if any(
                "profiler" in worker.name
                for worker in threading.enumerate()
            ):
                break
            pause.wait(0.01)
        else:
            pytest.fail("first profile never started sampling")
        # the second request must be rejected while the first samples;
        # retries are off so the retryable 409 surfaces directly
        with SubDExClient(
            server.url, retry=RetryPolicy(max_attempts=1)
        ) as second:
            with pytest.raises(ServerError) as excinfo:
                second.request(
                    "GET", "/debug/profile", query={"seconds": 0.1}
                )
        thread.join(timeout=15.0)
        error = excinfo.value
        assert error.status == 409
        assert error.code == "profile_in_progress"
        assert error.retryable
        assert isinstance(results["first"], str)

    def test_profile_validates_parameters(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.profile(seconds=0.0)
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.profile(seconds=0.2, fmt="svg")
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.request(
                "GET",
                "/debug/profile",
                query={"seconds": 0.1, "interval_ms": 0.0},
            )
        assert excinfo.value.status == 400


class TestSpanSummary:
    def test_span_accounting_after_load(self, under_load):
        with SubDExClient(under_load.url) as client:
            # ensure at least one fully traced request of our own (the
            # live-session cap can 429 while the workers hold sessions)
            pause = threading.Event()
            for __ in range(100):
                try:
                    client.create_session(dataset="tiny").close()
                    break
                except ServerError as error:
                    if error.status != 429:
                        raise
                    pause.wait(0.05)
            summary = client.spans_summary()
        assert summary["tracing_enabled"] is True
        assert summary["traces_seen"] >= 1
        operations = summary["operations"]
        assert operations
        for row in operations:
            assert row["count"] >= 1
            assert row["exclusive_ms"] <= row["inclusive_ms"] + 1e-6
            assert row["errors"] >= 0
        # heaviest-exclusive first
        exclusives = [row["exclusive_ms"] for row in operations]
        assert exclusives == sorted(exclusives, reverse=True)

    def test_limit_parameter(self, client):
        client.create_session(dataset="tiny").close()
        summary = client.spans_summary(limit=1)
        assert len(summary["operations"]) <= 1

    def test_span_metrics_in_prometheus_exposition(self, client):
        client.create_session(dataset="tiny").close()
        text = _prometheus_text(client)
        assert "# TYPE subdex_span_count_total counter" in text
        assert "subdex_span_exclusive_seconds_total" in text


class TestProcessMetrics:
    def test_process_section_in_json_metrics(self, client):
        payload = client.metrics()
        process = payload["process"]
        assert process["rss_bytes"] > 0
        assert process["threads"] >= 1
        assert process["uptime_seconds"] >= 0.0
        assert "gen0" in process["gc_collections"]

    def test_process_families_in_prometheus(self, client):
        text = _prometheus_text(client)
        for family in (
            "subdex_process_resident_memory_bytes",
            "subdex_process_gc_collections_total",
            "subdex_process_threads",
            "subdex_process_uptime_seconds",
        ):
            assert f"# HELP {family}" in text
            assert f"# TYPE {family}" in text


class TestServerMs:
    def test_server_ms_on_responses(self, client):
        payload = client.health()
        assert client.last_server_ms >= 0.0
        # the timing rides the header only: the body is what the server sent
        assert "server_ms" not in payload
        session = client.create_session(dataset="tiny")
        summary = session.summary()
        assert client.last_server_ms >= 0.0
        assert "server_ms" not in summary


class TestExplain:
    def test_explain_returns_cost_breakdown(self, client):
        session = client.create_session(dataset="tiny")
        explained = client.explain("GET", f"/sessions/{session.id}/maps")
        assert explained["trace_id"]
        assert explained["server_ms"] >= 0.0
        assert explained["tree"], "no span tree in debug payload"
        assert explained["costs"], "no flattened costs"
        root = explained["tree"]
        assert root["duration_ms"] >= 0.0
        total_inclusive = max(
            row["inclusive_ms"] for row in explained["costs"]
        )
        assert total_inclusive >= root["duration_ms"] * 0.5
