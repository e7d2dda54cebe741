"""Tests for the interestingness criteria (paper §3.2.3 / §4.1)."""

import numpy as np
import pytest

from repro.core import RatingDistribution
from repro.core.interestingness import (
    Criterion,
    CriterionScores,
    DispersionMeasure,
    InterestingnessScorer,
    PeculiarityDistance,
    noise_penalty,
)


@pytest.fixture()
def scorer() -> InterestingnessScorer:
    return InterestingnessScorer()


def _counts(*rows):
    return np.array(rows, dtype=np.int64)


class TestConciseness:
    def test_fewer_subgroups_more_concise(self, scorer):
        few = scorer.conciseness(_counts([10, 10, 0, 0, 0], [5, 10, 5, 0, 0]), 40)
        many = scorer.conciseness(
            _counts(*[[5, 5, 0, 0, 0]] * 4), 40
        )
        assert few > many

    def test_single_subgroup_zero(self, scorer):
        assert scorer.conciseness(_counts([10, 10, 0, 0, 0]), 20) == 0.0

    def test_matches_compaction_gain_formula(self, scorer):
        counts = _counts([8, 0, 0, 0, 0], [0, 0, 0, 0, 8])
        assert scorer.conciseness(counts, 100) == pytest.approx(50.0)

    def test_low_support_subgroups_ignored(self, scorer):
        counts = _counts([20, 0, 0, 0, 0], [0, 20, 0, 0, 0], [1, 0, 0, 0, 0])
        # third subgroup has 1 record < support 5 → only 2 subgroups count
        assert scorer.conciseness(counts, 41) == pytest.approx(41 / 2)


class TestAgreement:
    def test_unanimous_map_scores_one(self, scorer):
        counts = _counts([0, 0, 20, 0, 0], [0, 0, 0, 30, 0])
        assert scorer.agreement(counts, 50) == pytest.approx(1.0)

    def test_spread_lowers_agreement(self, scorer):
        tight = _counts([0, 20, 0, 0, 0], [0, 0, 20, 0, 0])
        spread = _counts([10, 0, 0, 0, 10], [10, 0, 0, 0, 10])
        assert scorer.agreement(tight, 40) > scorer.agreement(spread, 40)

    def test_tiny_unanimous_subgroup_cannot_dominate(self, scorer):
        # a 5-record unanimous subgroup vs a 500-record noisy one
        counts = _counts([5, 0, 0, 0, 0], [100, 100, 100, 100, 100])
        noisy_only = _counts([100, 100, 100, 100, 100], [100, 100, 100, 100, 100])
        assert scorer.agreement(counts, 505) < 0.6
        assert scorer.agreement(counts, 505) == pytest.approx(
            scorer.agreement(noisy_only, 1000), abs=0.05
        )

    def test_fewer_than_two_supported_is_zero(self, scorer):
        assert scorer.agreement(_counts([2, 0, 0, 0, 0], [1, 0, 0, 0, 0]), 3) == 0.0


class TestSelfPeculiarity:
    def test_homogeneous_map_low(self, scorer):
        counts = _counts([10, 10, 10, 0, 0], [10, 10, 10, 0, 0])
        assert scorer.self_peculiarity(counts, 60) == pytest.approx(0.0)

    def test_outlier_subgroup_high(self, scorer):
        counts = _counts([0, 0, 0, 0, 50], [50, 0, 0, 0, 0], [0, 0, 0, 0, 50])
        assert scorer.self_peculiarity(counts, 150) > 0.5

    def test_small_outlier_ignored(self, scorer):
        counts = _counts([3, 0, 0, 0, 0], [0, 0, 0, 30, 30], [0, 0, 0, 30, 30])
        # the 3-record outlier is below support → peculiarity stays low
        assert scorer.self_peculiarity(counts, 123) < 0.2


class TestGlobalPeculiarity:
    def test_no_seen_maps_zero(self, scorer):
        counts = _counts([10, 0, 0, 0, 0], [0, 0, 0, 0, 10])
        assert scorer.global_peculiarity(counts, [], 20) == 0.0

    def test_distance_to_seen(self, scorer):
        counts = _counts([10, 0, 0, 0, 0], [10, 0, 0, 0, 0])
        far = RatingDistribution([0, 0, 0, 0, 20])
        near = RatingDistribution([20, 0, 0, 0, 0])
        # TVD 1.0 minus the sampling-noise penalty sqrt(5 / (8·20))
        penalty = (5 / 160) ** 0.5
        assert scorer.global_peculiarity(counts, [far], 20) == pytest.approx(
            1.0 - penalty
        )
        assert scorer.global_peculiarity(counts, [near], 20) == pytest.approx(0.0)

    def test_max_vs_min_aggregation(self):
        max_scorer = InterestingnessScorer()
        min_scorer = InterestingnessScorer(global_use_min=True)
        counts = _counts([10, 0, 0, 0, 0], [10, 0, 0, 0, 0])
        seen = [
            RatingDistribution([20, 0, 0, 0, 0]),  # near
            RatingDistribution([0, 0, 0, 0, 20]),  # far
        ]
        penalty = (5 / 160) ** 0.5
        assert max_scorer.global_peculiarity(counts, seen, 20) == pytest.approx(
            1.0 - penalty
        )
        assert min_scorer.global_peculiarity(counts, seen, 20) == pytest.approx(0.0)

    def test_noise_penalty_shrinks_with_n(self):
        assert noise_penalty(10, 5) > noise_penalty(1000, 5)
        assert noise_penalty(0, 5) == 1.0

    def test_small_subgroup_peculiarity_damped(self, scorer):
        # the same relative contrast scores lower at 10 records than at 1000
        small = _counts([8, 2, 0, 0, 0], [2, 8, 0, 0, 0])
        large = small * 100
        assert scorer.self_peculiarity(small, 20) < scorer.self_peculiarity(
            large, 2000
        )


class TestScore:
    def test_uninformative_map_all_zero(self, scorer):
        assert scorer.score(_counts([10, 0, 0, 0, 0]), 10, []) == (
            CriterionScores.zero()
        )

    def test_empty_counts(self, scorer):
        assert scorer.score(np.zeros((0, 5)), 0, []) == CriterionScores.zero()

    def test_fast_path_matches_reference(self, scorer):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 40, size=(6, 5))
        seen = [RatingDistribution(rng.integers(0, 30, size=5) + 1) for __ in range(3)]
        group_size = int(counts.sum())
        fast = scorer.score(counts, group_size, seen)
        assert fast.conciseness == pytest.approx(
            scorer.conciseness(counts, group_size)
        )
        assert fast.agreement == pytest.approx(
            scorer.agreement(counts, group_size)
        )
        assert fast.pec_self == pytest.approx(
            scorer.self_peculiarity(counts, group_size)
        )
        assert fast.pec_global == pytest.approx(
            scorer.global_peculiarity(counts, seen, group_size)
        )

    def test_partial_data_support_scales(self, scorer):
        # with only 10% of a 1000-record group seen, a 3-record subgroup
        # may still count (effective support shrinks)
        counts = _counts([3, 0, 0, 0, 0], [50, 0, 0, 0, 47])
        scores = scorer.score(counts, 1000, [])
        assert scores.n_subgroups == 2

    def test_alternative_dispersion_measures_run(self):
        for measure in DispersionMeasure:
            scorer = InterestingnessScorer(dispersion=measure)
            counts = _counts([5, 5, 5, 0, 0], [0, 5, 5, 5, 0])
            assert 0 <= scorer.agreement(counts, 30) <= 1

    def test_kl_peculiarity_runs(self):
        scorer = InterestingnessScorer(peculiarity=PeculiarityDistance.KL)
        counts = _counts([50, 0, 0, 0, 0], [0, 0, 0, 0, 50])
        assert scorer.self_peculiarity(counts, 100) > 0

    def test_criterion_getter(self):
        scores = CriterionScores(1.0, 2.0, 3.0, 4.0, 2)
        assert scores.get(Criterion.CONCISENESS) == 1.0
        assert scores.get(Criterion.AGREEMENT) == 2.0
        assert scores.get(Criterion.PECULIARITY_SELF) == 3.0
        assert scores.get(Criterion.PECULIARITY_GLOBAL) == 4.0


class TestOutlierPeculiarity:
    def test_outlier_distance_mean_gap(self):
        from repro.core.interestingness import outlier_distance

        lo = RatingDistribution([10, 0, 0, 0, 0])  # mean 1
        hi = RatingDistribution([0, 0, 0, 0, 10])  # mean 5
        assert outlier_distance(lo, hi) == pytest.approx(1.0)
        assert outlier_distance(lo, lo) == 0.0

    def test_outlier_distance_shape_blind(self):
        from repro.core.interestingness import outlier_distance

        spread = RatingDistribution([5, 0, 0, 0, 5])  # mean 3
        point = RatingDistribution([0, 0, 10, 0, 0])  # mean 3
        assert outlier_distance(spread, point) == 0.0

    def test_outlier_scorer_runs(self):
        scorer = InterestingnessScorer(
            peculiarity=PeculiarityDistance.OUTLIER
        )
        counts = _counts([50, 0, 0, 0, 0], [0, 0, 0, 0, 50])
        assert scorer.self_peculiarity(counts, 100) > 0.3
