"""The anytime serving surface: budgets, envelopes, refinement, degrade-not-shed."""

from __future__ import annotations

import contextlib

import pytest

from repro.resilience.faults import FaultPlan
from repro.resilience.gate import Priority
from repro.server import ServerError


def _numbers(recommendations) -> list[tuple[str, float]]:
    return [(r["description"], r["utility"]) for r in recommendations]


# -- the off switch: no budget, no pressure -> the pre-anytime path ----------

def test_plain_request_payload_is_unchanged(make_server, no_retry_client):
    server = make_server()
    client = no_retry_client(server.url)
    session = client.create_session()
    payload = client.request(
        "GET", f"/sessions/{session.id}/recommendations"
    )
    assert set(payload) == {"session_id", "recommendations"}
    assert payload["recommendations"]
    for entry in payload["recommendations"]:
        assert "quality" not in entry


def test_anytime_disabled_ignores_pressure(make_server, no_retry_client):
    server = make_server(anytime_enabled=False, max_inflight=64)
    client = no_retry_client(server.url)
    session = client.create_session()
    payload = client.request(
        "GET", f"/sessions/{session.id}/recommendations"
    )
    assert set(payload) == {"session_id", "recommendations"}


# -- budgeted envelopes -------------------------------------------------------

def test_generous_budget_returns_complete_envelope(make_server, no_retry_client):
    server = make_server()
    client = no_retry_client(server.url)
    session = client.create_session()
    plain = session.recommendations()
    payload = session.recommend(budget_ms=60_000)
    assert payload["degraded"] is False
    assert payload["refinement"] is None
    quality = payload["quality"]
    assert quality["rung"] == "full"
    assert quality["complete"] is True
    assert quality["budget_ms"] == 60_000
    assert quality["budget_cut"] is False
    assert _numbers(payload["recommendations"]) == _numbers(plain)


def test_forced_cut_yields_partial_then_refines(make_server, no_retry_client):
    """Satellite 2: FaultPlan forces a deterministic budget expiry."""
    plan = FaultPlan(budget_cut_phases={"anytime.recommend": 1})
    server = make_server(fault_plan=plan)
    client = no_retry_client(server.url)
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
    refined = session.wait_for_refinement(refinement["token"], timeout=30.0)
    assert refined["status"] == "done"
    assert refined["quality"]["complete"] is True
    assert _numbers(refined["recommendations"]) == _numbers(full)


def test_budget_versus_deadline_smaller_wins(make_server, no_retry_client):
    """Satellite 1 end-to-end: the hard deadline binds a bigger budget..."""
    server = make_server()
    client = no_retry_client(server.url)
    session = client.create_session()
    with pytest.raises(ServerError) as excinfo:
        session.recommend(budget_ms=60_000, deadline_ms=1)
    assert excinfo.value.status == 504
    assert excinfo.value.code == "deadline_exceeded"
    # ...and a small budget under a big deadline soft-cuts instead of 504ing
    payload = session.recommend(budget_ms=1, deadline_ms=60_000)
    assert payload["quality"]["complete"] is False
    assert payload["quality"]["budget_cut"] is True
    assert payload["refinement"] is not None


# -- overload: degrade through the ladder, never shed NORMAL reads -----------

def test_overload_serves_cached_instead_of_503(make_server, no_retry_client):
    server = make_server(max_inflight=2, soft_inflight=1)
    client = no_retry_client(server.url)
    session = client.create_session()
    session.recommendations()  # warm: the stored step is the cache source
    with contextlib.ExitStack() as stack:
        for _ in range(2):  # occupy the gate to its hard limit
            stack.enter_context(server.gate.admit(Priority.CRITICAL))
        # a non-degradable write is still shed...
        with pytest.raises(ServerError) as excinfo:
            client.create_session()
        assert excinfo.value.status == 503
        # ...but recommendation reads ride the ladder down to CACHED
        payload = session.recommend(budget_ms=60_000)
        assert payload["degraded"] is True
        assert payload["quality"]["rung"] == "cached"
        assert payload["quality"]["stale"] is True
        assert payload["recommendations"]  # the stored step's answer
        # even without a budget: pressure alone engages the anytime path
        unbudgeted = session.recommend()
        assert unbudgeted["quality"]["rung"] == "cached"
    gate = server.gate.counters()
    assert gate["degraded_overflow"] >= 1 or gate["inflight"] == 0


# -- protocol edges -----------------------------------------------------------

@pytest.mark.parametrize("raw", ["0", "-3", "nope", "2.5"])
def test_invalid_budget_is_rejected(make_server, no_retry_client, raw):
    server = make_server()
    client = no_retry_client(server.url)
    session = client.create_session()
    with pytest.raises(ServerError) as excinfo:
        client.request(
            "GET",
            f"/sessions/{session.id}/recommendations",
            query={"budget_ms": raw},
        )
    assert excinfo.value.status == 400
    assert excinfo.value.code == "invalid_request"


def test_unknown_refinement_token_is_410(make_server, no_retry_client):
    server = make_server()
    client = no_retry_client(server.url)
    session = client.create_session()
    with pytest.raises(ServerError) as excinfo:
        session.refine("0" * 32)
    assert excinfo.value.status == 410
    assert excinfo.value.code == "refinement_lost"


# -- observability ------------------------------------------------------------

def test_anytime_metrics_are_exposed(make_server, no_retry_client):
    plan = FaultPlan(budget_cut_phases={"anytime.recommend": 1})
    server = make_server(fault_plan=plan)
    client = no_retry_client(server.url)
    session = client.create_session()
    payload = session.recommend(budget_ms=60_000)
    session.wait_for_refinement(payload["refinement"]["token"])

    snapshot = client.metrics()["resilience"]
    anytime = snapshot["anytime"]
    assert anytime["rung_requests"].get("full") == 1
    assert anytime["partials"] == 1
    assert anytime["forced_cuts"] == 1
    assert snapshot["refinements"]["submitted"] == 1
    assert snapshot["refinements"]["completed"] == 1

    text = client.request(
        "GET", "/metrics", query={"format": "prometheus"}
    )["text"]
    assert 'subdex_anytime_requests_total{rung="full"}' in text
    assert "subdex_anytime_events_total" in text
    assert "subdex_anytime_latency_ewma_ms" in text
    assert "subdex_anytime_refinements_total" in text
