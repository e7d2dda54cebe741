"""``repro.perf`` — performance observability.

Three pillars, layered on :mod:`repro.obs` (ISSUE 5):

* :mod:`repro.perf.profiler` — a stdlib sampling wall-clock profiler
  (``sys._current_frames()`` on a background thread) with
  flamegraph-ready collapsed-stack output; behind ``GET /debug/profile``
  and ``python -m repro profile``;
* :mod:`repro.perf.spanstats` — span cost accounting: a trace sink that
  aggregates finished spans into per-operation inclusive/exclusive time,
  call counts and p50/p95 tables; behind ``GET /debug/spans/summary``
  and span-cost families on the metrics registry;
* :mod:`repro.perf.benchjson` — the ``BENCH_<name>.json`` result schema
  every ``benchmarks/bench_*.py`` writes next to its ``.txt`` report.

See ``docs/PERFORMANCE.md`` for the schema and for where each
performance claim is checked, ``docs/OBSERVABILITY.md`` for the
profiling endpoints.
"""

from .benchjson import (
    SCHEMA_VERSION,
    BenchResult,
    Metric,
    env_fingerprint,
    git_sha,
    load_results_dir,
    validate_bench_result,
    write_bench_json,
)
from .profiler import (
    Profile,
    SamplingProfiler,
    filter_stacks,
    merge_profiles,
    profile_for,
)
from .spanstats import SpanStatsSink, tree_costs

__all__ = [
    "BenchResult",
    "Metric",
    "Profile",
    "SCHEMA_VERSION",
    "SamplingProfiler",
    "SpanStatsSink",
    "env_fingerprint",
    "filter_stacks",
    "git_sha",
    "load_results_dir",
    "merge_profiles",
    "profile_for",
    "tree_costs",
    "validate_bench_result",
    "write_bench_json",
]
