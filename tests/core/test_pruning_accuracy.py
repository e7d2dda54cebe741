"""Pruning accuracy as a gate (paper §4.2.1's w.h.p. claim).

Runs the pruning-accuracy ablation's four Yelp groups
(``benchmarks/bench_ablation_pruning_accuracy.py``) at a pinned dataset
scale.  Every pruned variant must keep the exact top-1 map in its pool —
SAR never rejects the true best arm — and the pool overlaps with the
exact (No-Pruning) k×l pool must stay at their recorded values: 35 of 36
pool maps for CI, 23 of 36 for MAB and for CI+MAB.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.bench import bench_database
from repro.core.pruning import PruningStrategy

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

EXPECTED_OVERLAP = {
    PruningStrategy.CONFIDENCE_INTERVAL: 35 / 36,
    PruningStrategy.MAB: 23 / 36,
    PruningStrategy.COMBINED: 23 / 36,
}


@pytest.fixture()
def accuracy(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.03")
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    bench_database.cache_clear()  # cached per name, not per scale
    try:
        import bench_ablation_pruning_accuracy

        yield bench_ablation_pruning_accuracy._accuracy()
    finally:
        bench_database.cache_clear()
        sys.modules.pop("bench_ablation_pruning_accuracy", None)


def test_pruning_keeps_top1_and_recorded_overlap(accuracy):
    assert set(accuracy) == set(EXPECTED_OVERLAP)
    for strategy, (overlap, top1) in accuracy.items():
        assert top1 == 1.0, f"{strategy.value}: top-1 survival {top1}"
        assert overlap == pytest.approx(EXPECTED_OVERLAP[strategy], abs=1e-12), (
            f"{strategy.value}: pool overlap {overlap}"
        )
