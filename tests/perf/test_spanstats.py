"""Tests for span-derived cost accounting (SpanStatsSink, tree_costs)."""

from __future__ import annotations

import pytest

from repro.obs.tracing import Span, Trace
from repro.perf import SpanStatsSink, tree_costs
from repro.perf.spanstats import percentile


def _span(
    name: str,
    span_id: str,
    parent_id: str | None,
    seconds: float,
    status: str = "ok",
) -> Span:
    span = Span(name, "t1", span_id, parent_id, {})
    span.end = span.start + seconds
    span.status = status
    return span


def _trace(*spans: Span) -> Trace:
    return Trace("t1", tuple(spans))


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 50.0) is None

    def test_single_sample(self):
        assert percentile([4.0], 95.0) == 4.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0

    def test_validates_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_matches_numpy(self):
        import numpy as np

        samples = list(np.random.default_rng(3).uniform(0, 1, 101))
        for q in (0.0, 25.0, 50.0, 95.0, 100.0):
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q))
            )


class TestSpanStatsSink:
    def test_exclusive_subtracts_direct_children(self):
        sink = SpanStatsSink()
        sink(
            _trace(
                _span("request", "r", None, 1.0),
                _span("engine.step", "s", "r", 0.7),
                _span("db.scan", "d", "s", 0.4),
            )
        )
        rows = {
            row["name"]: row for row in sink.summary()["operations"]
        }
        assert rows["request"]["exclusive_ms"] == pytest.approx(300.0)
        assert rows["engine.step"]["exclusive_ms"] == pytest.approx(300.0)
        assert rows["db.scan"]["exclusive_ms"] == pytest.approx(400.0)
        # exclusive times sum to the root's inclusive time
        total_exclusive = sum(r["exclusive_ms"] for r in rows.values())
        assert total_exclusive == pytest.approx(
            rows["request"]["inclusive_ms"]
        )

    def test_exclusive_clamped_at_zero(self):
        # a child outliving its parent must not produce negative self time
        sink = SpanStatsSink()
        sink(
            _trace(
                _span("parent", "p", None, 0.1),
                _span("child", "c", "p", 0.5),
            )
        )
        rows = {row["name"]: row for row in sink.summary()["operations"]}
        assert rows["parent"]["exclusive_ms"] == 0.0

    def test_counts_errors_and_traces(self):
        sink = SpanStatsSink()
        sink(_trace(_span("op", "a", None, 0.01)))
        sink(_trace(_span("op", "b", None, 0.02, status="error")))
        summary = sink.summary()
        assert summary["traces_seen"] == 2
        (row,) = summary["operations"]
        assert row["count"] == 2
        assert row["errors"] == 1
        assert row["p50_ms"] is not None and row["p95_ms"] is not None

    def test_summary_sorted_and_limited(self):
        sink = SpanStatsSink()
        sink(
            _trace(
                _span("root", "r", None, 1.0),
                _span("cheap", "a", "r", 0.01),
                _span("costly", "b", "r", 0.8),
            )
        )
        operations = sink.summary()["operations"]
        assert operations[0]["name"] == "costly"
        assert len(sink.summary(limit=1)["operations"]) == 1

    def test_reset(self):
        sink = SpanStatsSink()
        sink(_trace(_span("op", "a", None, 0.01)))
        sink.reset()
        assert sink.summary() == {"traces_seen": 0, "operations": []}

    def test_reservoir_size_validated(self):
        with pytest.raises(ValueError):
            SpanStatsSink(reservoir_size=0)

    def test_collect_metric_families(self):
        sink = SpanStatsSink()
        sink(
            _trace(
                _span("root", "r", None, 0.2),
                _span("inner", "i", "r", 0.1),
            )
        )
        families = {family.name: family for family in sink.collect()}
        assert set(families) == {
            "subdex_span_count_total",
            "subdex_span_errors_total",
            "subdex_span_inclusive_seconds_total",
            "subdex_span_exclusive_seconds_total",
            "subdex_span_seconds",
            "subdex_span_quantile_seconds",
        }
        counts = families["subdex_span_count_total"]
        assert counts.kind == "counter"
        labels = {
            sample.labels["name"]: sample.value for sample in counts.samples
        }
        assert labels == {"root": 1, "inner": 1}
        quantiles = families["subdex_span_quantile_seconds"]
        assert quantiles.kind == "gauge"
        assert {
            sample.labels["quantile"] for sample in quantiles.samples
        } == {"p50", "p95"}

    def test_collect_emits_cumulative_histogram(self):
        sink = SpanStatsSink()
        # 0.003s lands in the 0.005 bucket, 0.2s in the 0.25 bucket,
        # 99s overflows every bound
        sink(_trace(_span("op", "a", None, 0.003)))
        sink(_trace(_span("op", "b", None, 0.2)))
        sink(_trace(_span("op", "c", None, 99.0)))
        families = {family.name: family for family in sink.collect()}
        histogram = families["subdex_span_seconds"]
        assert histogram.kind == "histogram"
        buckets = {
            sample.labels["le"]: sample.value
            for sample in histogram.samples
            if sample.suffix == "_bucket"
        }
        assert buckets["0.001"] == 0
        assert buckets["0.005"] == 1
        assert buckets["0.25"] == 2
        assert buckets["30"] == 2
        assert buckets["+Inf"] == 3
        # counts are monotone non-decreasing in bound order
        ordered = [
            sample.value
            for sample in histogram.samples
            if sample.suffix == "_bucket"
        ]
        assert ordered == sorted(ordered)
        (sum_sample,) = [
            s for s in histogram.samples if s.suffix == "_sum"
        ]
        assert sum_sample.value == pytest.approx(0.003 + 0.2 + 99.0)
        (count_sample,) = [
            s for s in histogram.samples if s.suffix == "_count"
        ]
        assert count_sample.value == 3

    def test_collect_rendering_escapes_label_values(self):
        sink = SpanStatsSink()
        tricky = 'op with "quotes" and \\slash'
        sink(_trace(_span(tricky, "a", None, 0.01)))
        families = {family.name: family for family in sink.collect()}
        text = families["subdex_span_seconds"].render()
        assert 'name="op with \\"quotes\\" and \\\\slash"' in text
        assert "subdex_span_seconds_bucket" in text
        assert 'le="+Inf"' in text


class TestTreeCosts:
    def test_flattens_debug_tree(self):
        tree = {
            "name": "request",
            "duration_ms": 100.0,
            "children": [
                {"name": "step", "duration_ms": 60.0, "children": []},
                {"name": "step", "duration_ms": 20.0, "children": []},
            ],
        }
        rows = tree_costs(tree)
        by_name = {row["name"]: row for row in rows}
        assert by_name["step"]["count"] == 2
        assert by_name["step"]["inclusive_ms"] == pytest.approx(80.0)
        assert by_name["request"]["exclusive_ms"] == pytest.approx(20.0)
        # heaviest exclusive first
        assert rows[0]["name"] == "step"

    def test_empty_tree(self):
        assert tree_costs({}) == []
