"""SLO spec: objective validation, classification, burn-rate math."""

from __future__ import annotations

import json
import math

import pytest

from repro.slo import (
    SLObjective,
    SLOConfig,
    burn_rate,
    default_slo_config,
    evaluate_counts,
    load_slo_config,
)
from repro.server.app import SessionService
from repro.slo.spec import DEFAULT_CLASS_OBJECTIVES, DEFAULT_OP_CLASSES


class TestSLObjective:
    def test_defaults_are_the_paper_promise(self):
        objective = SLObjective()
        assert objective.latency_ms == 800.0
        assert objective.latency_target == 0.95
        assert objective.availability_target == 0.995

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_ms": 0.0},
            {"latency_ms": -5.0},
            {"latency_target": 0.0},
            {"latency_target": 1.5},
            {"availability_target": -0.1},
            {"max_degraded_rate": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SLObjective(**kwargs)

    def test_json_roundtrip(self):
        objective = SLObjective(latency_ms=500.0, latency_target=0.99)
        assert SLObjective.from_json(objective.to_json()) == objective

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown SLO objective keys"):
            SLObjective.from_json({"latency_ms": 500, "p99": 1})


class TestSLOConfig:
    def test_default_classes(self):
        config = default_slo_config()
        assert set(config.classes) == {
            "recommendations",
            "steps",
            "reads",
            "ops",
        }

    def test_classify_known_routes(self):
        config = default_slo_config()
        assert (
            config.classify("GET /sessions/{id}/recommendations")
            == "recommendations"
        )
        assert config.classify("POST /sessions") == "steps"
        assert config.classify("GET /sessions/{id}/maps") == "reads"
        assert config.classify("GET /metrics") == "ops"

    def test_classify_fallback_for_unknown_routes(self):
        config = default_slo_config()
        assert (
            config.classify("GET /v2/sessions/{id}/recommendations")
            == "recommendations"
        )
        assert config.classify("POST /v2/things") == "steps"
        assert config.classify("GET /sessions/{id}/notes") == "reads"
        assert config.classify("GET /whatever") == "ops"
        assert config.classify("<unmatched>") == "ops"

    def test_classify_op(self):
        config = default_slo_config()
        assert config.classify_op("session.recommendations") == "recommendations"
        assert config.classify_op("session.apply") == "steps"
        assert config.classify_op("session.maps") == "reads"
        assert config.classify_op("maps.scan") == "steps"
        assert config.classify_op("mystery.op") == "ops"
        # a worker op missing from the table would fall through to "ops"
        # and be scored differently from its route on a 0-worker front
        assert set(SessionService.OPS) <= set(DEFAULT_OP_CLASSES)

    def test_json_roundtrip(self):
        config = default_slo_config()
        restored = SLOConfig.from_json(config.to_json())
        assert restored.classes == dict(config.classes)
        assert restored.route_classes == dict(config.route_classes)
        assert restored.op_classes == dict(config.op_classes)

    def test_from_json_merges_over_defaults(self):
        config = SLOConfig.from_json(
            {"classes": {"recommendations": {"latency_ms": 500}}}
        )
        assert config.objective("recommendations").latency_ms == 500.0
        # the untouched fields keep their defaults
        assert config.objective("recommendations").latency_target == 0.95
        assert (
            config.objective("steps")
            == DEFAULT_CLASS_OBJECTIVES["steps"]
        )

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown SLO config keys"):
            SLOConfig.from_json({"classez": {}})

    @pytest.mark.parametrize("key", ["classes", "routes", "ops"])
    def test_from_json_rejects_non_object_tables(self, key):
        with pytest.raises(ValueError, match="must be a JSON object"):
            SLOConfig.from_json({key: 3})

    def test_route_table_must_name_known_classes(self):
        with pytest.raises(ValueError, match="unknown class"):
            SLOConfig(
                classes={"reads": SLObjective()},
                route_classes={"GET /x": "nope"},
                op_classes={},
            )

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(
            json.dumps({"classes": {"reads": {"latency_ms": 100}}})
        )
        config = load_slo_config(str(path))
        assert config.objective("reads").latency_ms == 100.0
        assert load_slo_config(None).objective("reads").latency_ms == 250.0

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_slo_config(str(path))


class TestBurnRate:
    def test_empty_window_burns_nothing(self):
        assert burn_rate(0, 0, 0.95) == 0.0

    def test_at_budget_is_one(self):
        # 5% bad with a 95% target = burning exactly at budget
        assert burn_rate(5, 100, 0.95) == pytest.approx(1.0)

    def test_monotone_in_bad_count(self):
        rates = [burn_rate(bad, 100, 0.99) for bad in range(0, 101)]
        assert rates == sorted(rates)
        assert all(math.isfinite(rate) for rate in rates)

    def test_perfect_target_is_clamped_not_infinite(self):
        rate = burn_rate(1, 100, 1.0)
        assert math.isfinite(rate)
        assert rate > 0


class TestEvaluateCounts:
    def test_empty_window_yields_nulls_never_nan(self):
        report = evaluate_counts(SLObjective(), {})
        text = json.dumps(report, allow_nan=False)  # raises on NaN/Inf
        assert report["availability"] is None
        assert report["latency_attainment"] is None
        assert report["mean_latency_ms"] is None
        assert report["burn_rates"]["max"] == 0.0
        assert "NaN" not in text

    def test_rates(self):
        report = evaluate_counts(
            SLObjective(availability_target=0.9, latency_target=0.9),
            {
                "count": 10,
                "errors": 1,
                "shed": 2,
                "degraded": 3,
                "within_budget": 8,
                "sum_seconds": 5.0,
            },
        )
        assert report["availability"] == pytest.approx(0.9)
        assert report["latency_attainment"] == pytest.approx(0.8)
        assert report["shed_rate"] == pytest.approx(0.2)
        assert report["degraded_rate"] == pytest.approx(0.3)
        assert report["mean_latency_ms"] == pytest.approx(500.0)
        # 10% errors with a 90% target → burn exactly 1.0
        assert report["burn_rates"]["availability"] == pytest.approx(1.0)
        # 20% slow with a 10% allowance → burn 2.0
        assert report["burn_rates"]["latency"] == pytest.approx(2.0)

    def test_degraded_burn_uses_max_degraded_rate_as_allowance(self):
        objective = SLObjective(max_degraded_rate=0.1)
        report = evaluate_counts(
            objective, {"count": 100, "degraded": 10, "within_budget": 100}
        )
        assert report["burn_rates"]["degraded"] == pytest.approx(1.0)

    def test_fully_allowed_degradation_burns_proportionally(self):
        objective = SLObjective(max_degraded_rate=1.0)
        report = evaluate_counts(
            objective, {"count": 10, "degraded": 10, "within_budget": 10}
        )
        assert report["burn_rates"]["degraded"] == pytest.approx(1.0)
