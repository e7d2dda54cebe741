"""End-to-end schema validation of real benchmark BENCH_*.json output.

Runs three fast benchmarks as subprocesses at a reduced scale (0.05, 2
subjects) and validates every emitted JSON file against the schema — the
benches' *own* metric wiring is what's under test, not the schema
validator.  A failing bench assert fails the fixture, so this is also
where the sharing (identical histograms, shared ≤ 1.1× unshared),
sampling (full sample agrees, 10% sample ≥ 0.8) and caching (≥ 4 hits,
warm ≤ cold) claims run in tier-1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.perf import load_results_dir, validate_bench_result
from repro.perf.benchjson import BENCH_FILE_PREFIX

REPO = Path(__file__).resolve().parents[2]

#: name reported by the bench -> its file (fast ones only; the slow
#: benches run in their own CI jobs)
FAST_BENCHES = {
    "ablation_sharing": "bench_ablation_sharing.py",
    "ablation_sampling": "bench_ablation_sampling.py",
    "caching_interactivity": "bench_caching_interactivity.py",
}


@pytest.fixture(scope="module")
def bench_results(tmp_path_factory):
    results_dir = tmp_path_factory.mktemp("bench_json")
    env = dict(
        os.environ,
        REPRO_BENCH_RESULTS=str(results_dir),
        REPRO_BENCH_SCALE="0.05",
        REPRO_BENCH_SUBJECTS="2",
        PYTHONPATH=str(REPO / "src"),
    )
    for filename in FAST_BENCHES.values():
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(REPO / "benchmarks" / filename),
                "-q",
                "-p",
                "no:cacheprovider",
            ],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, (
            f"{filename} failed:\n{completed.stdout}\n{completed.stderr}"
        )
    return results_dir


def test_every_bench_emits_json_and_txt(bench_results):
    for name in FAST_BENCHES:
        assert (bench_results / f"{BENCH_FILE_PREFIX}{name}.json").is_file()
        assert (bench_results / f"{name}.txt").is_file()


def test_emitted_json_is_schema_valid(bench_results):
    for name in FAST_BENCHES:
        path = bench_results / f"{BENCH_FILE_PREFIX}{name}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_bench_result(payload) == [], path.name
        assert payload["name"] == name
        assert payload["metrics"], "no metrics recorded"


def test_loader_round_trip(bench_results):
    results, problems = load_results_dir(bench_results)
    assert problems == {}
    assert set(results) == set(FAST_BENCHES)
    for result in results.values():
        # every metric must carry a concrete direction or be explicitly
        # informational, and portable flags must be booleans
        for key, metric in result.metrics.items():
            assert metric.higher_is_better in (True, False, None), key
            assert isinstance(metric.portable, bool), key


def test_portable_metrics_present_for_gating(bench_results):
    """Each fast bench must expose >=1 portable metric with a direction."""
    results, __ = load_results_dir(bench_results)
    for name, result in results.items():
        gated = [
            m
            for m in result.metrics.values()
            if m.portable and m.higher_is_better is not None
        ]
        assert gated, f"{name} has no machine-independent gated metric"
