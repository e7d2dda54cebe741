"""Benchmark harness (S18): timing, sweeps, tables, shared workloads."""

from .harness import (
    Metric,
    Sweep,
    Timer,
    format_series,
    format_table,
    latency_summary,
    paper_vs_measured,
    percentile,
    report,
    time_call,
)
from .sde_benchmark import (
    BenchmarkSuite,
    BenchmarkTask,
    anomaly_visibility,
    generate_suite,
)
from .workloads import (
    bench_database,
    bench_recommender_config,
    bench_scale,
    bench_subjects,
    restrict_attribute_count,
    restrict_value_count,
)

__all__ = [
    "BenchmarkSuite",
    "BenchmarkTask",
    "Metric",
    "Sweep",
    "Timer",
    "bench_database",
    "bench_recommender_config",
    "bench_scale",
    "bench_subjects",
    "anomaly_visibility",
    "generate_suite",
    "format_series",
    "format_table",
    "latency_summary",
    "paper_vs_measured",
    "percentile",
    "report",
    "restrict_attribute_count",
    "restrict_value_count",
    "time_call",
]
