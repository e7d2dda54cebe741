"""Tests for the phased framework (Alg. 1) and pruning schemes (Alg. 3 + MAB)."""

import pytest

from repro.core.generator import GeneratorConfig, RMSetGenerator
from repro.core.phases import PhasedExecution, PhaseSnapshot
from repro.core.pruning import (
    CombinedPruner,
    ConfidenceIntervalPruner,
    MABPruner,
    NoPruning,
    PruningStrategy,
    make_pruner,
)
from repro.core.rating_maps import enumerate_map_specs
from repro.core.utility import ScoredCandidate, SeenMaps, UtilityConfig
from repro.core.interestingness import Criterion, CriterionScores
from repro.model import RatingGroup, SelectionCriteria


def _execution(tiny_db, n_phases=10, criteria=None):
    group = RatingGroup(tiny_db, criteria or SelectionCriteria.root())
    specs = tuple(enumerate_map_specs(tiny_db, group.criteria))
    seen = SeenMaps(tiny_db.dimensions)
    config = UtilityConfig()
    return group, PhasedExecution(group, specs, seen, config, n_phases=n_phases)


class TestPhasedExecution:
    def test_no_pruning_ranks_all_candidates(self, tiny_db):
        group, execution = _execution(tiny_db)
        result = execution.run(NoPruning(), k_prime=9)
        assert result.pruned == ()
        assert 0 < len(result.ranked) <= 9
        assert result.phases_run == 10

    def test_ranked_by_dw_utility_descending(self, tiny_db):
        __, execution = _execution(tiny_db)
        result = execution.run(NoPruning(), k_prime=10)
        utilities = [result.scores[rm.spec].dw_utility for rm in result.ranked]
        assert utilities == sorted(utilities, reverse=True)

    def test_final_histograms_cover_all_records(self, tiny_db):
        group, execution = _execution(tiny_db)
        result = execution.run(NoPruning(), k_prime=10)
        for rm in result.ranked:
            assert rm.group_size == len(group)
            assert rm.covered <= len(group)

    def test_single_phase_equivalent_ranking(self, tiny_db):
        """Phasing must not change final scores (only pruning can)."""
        __, e1 = _execution(tiny_db, n_phases=1)
        __, e10 = _execution(tiny_db, n_phases=10)
        r1 = e1.run(NoPruning(), k_prime=20)
        r10 = e10.run(NoPruning(), k_prime=20)
        assert [rm.spec for rm in r1.ranked] == [rm.spec for rm in r10.ranked]
        for spec in r1.scores:
            assert r1.scores[spec].dw_utility == pytest.approx(
                r10.scores[spec].dw_utility
            )

    def test_pruning_reduces_survivors(self, tiny_db):
        __, execution = _execution(tiny_db)
        result = execution.run(CombinedPruner(), k_prime=3)
        assert len(result.ranked) <= 3

    def test_ci_pruning_preserves_top1(self, tiny_db):
        """With a conservative delta the top map survives pruning."""
        __, no_prune = _execution(tiny_db)
        truth = no_prune.run(NoPruning(), k_prime=20)
        top_spec = truth.ranked[0].spec
        __, pruned = _execution(tiny_db)
        result = pruned.run(ConfidenceIntervalPruner(delta=0.01), k_prime=3)
        assert top_spec in [rm.spec for rm in result.ranked]


def _snapshot(means: dict, phase=1, n_phases=10) -> PhaseSnapshot:
    scores = {
        name: ScoredCandidate(
            CriterionScores(1, mean, mean, mean, 3),
            {Criterion.AGREEMENT: mean},
            mean,
            1.0,
        )
        for name, mean in means.items()
    }
    return PhaseSnapshot(phase, n_phases, rows_seen=50, n_total=100, scores=scores)


class TestCIPruner:
    def test_keeps_everything_when_few_candidates(self):
        pruner = ConfidenceIntervalPruner()
        pruner.begin(list("ab"), k_prime=3)
        assert pruner.prune(_snapshot({"a": 0.9, "b": 0.1})) == set()

    def test_prunes_clear_losers_late(self):
        pruner = ConfidenceIntervalPruner(delta=0.5)
        pruner.begin(list("abcd"), k_prime=1)
        snapshot = _snapshot(
            {"a": 0.95, "b": 0.05, "c": 0.04, "d": 0.03},
            phase=9,
        )
        # near the end of the scan intervals are narrow → losers go
        snapshot = PhaseSnapshot(9, 10, rows_seen=95, n_total=100, scores=snapshot.scores)
        dropped = pruner.prune(snapshot)
        assert "a" not in dropped
        assert dropped  # someone was pruned

    def test_wide_intervals_prune_nothing(self):
        pruner = ConfidenceIntervalPruner(delta=0.01)
        pruner.begin(list("abcd"), k_prime=1)
        snapshot = PhaseSnapshot(
            1, 10, rows_seen=2, n_total=1000,
            scores=_snapshot({"a": 0.6, "b": 0.5, "c": 0.4, "d": 0.45}).scores,
        )
        assert pruner.prune(snapshot) == set()

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            ConfidenceIntervalPruner(delta=0)


class TestMABPruner:
    def test_rejects_worst_arm_on_schedule(self):
        pruner = MABPruner()
        pruner.begin(list("abcdefgh"), k_prime=2)
        dropped = pruner.prune(
            _snapshot({c: ord(c) / 200 for c in "abcdefgh"}, phase=5)
        )
        assert "a" in dropped or len(dropped) > 0
        assert "h" not in dropped

    def test_never_drops_below_k_prime(self):
        pruner = MABPruner()
        arms = list("abcdefgh")
        pruner.begin(arms, k_prime=3)
        survivors = set(arms)
        for phase in range(1, 10):
            means = {c: ord(c) / 200 for c in survivors}
            dropped = pruner.prune(_snapshot(means, phase=phase))
            survivors -= dropped
        assert len(survivors) >= 3

    def test_requires_begin(self):
        with pytest.raises(RuntimeError):
            MABPruner().prune(_snapshot({"a": 1.0}))

    def test_handles_externally_removed_arms(self):
        pruner = MABPruner()
        pruner.begin(list("abcd"), k_prime=1)
        # "d" vanished from the snapshot (CI pruned it)
        dropped = pruner.prune(_snapshot({"a": 0.9, "b": 0.2, "c": 0.3}, phase=8))
        assert "a" not in dropped


class TestFactory:
    @pytest.mark.parametrize(
        "strategy,cls",
        [
            (PruningStrategy.NONE, NoPruning),
            (PruningStrategy.CONFIDENCE_INTERVAL, ConfidenceIntervalPruner),
            (PruningStrategy.MAB, MABPruner),
            (PruningStrategy.COMBINED, CombinedPruner),
        ],
    )
    def test_make_pruner(self, strategy, cls):
        assert isinstance(make_pruner(strategy), cls)

    def test_generator_config_validation(self):
        with pytest.raises(Exception):
            GeneratorConfig(k=0)
        with pytest.raises(Exception):
            GeneratorConfig(pruning_diversity_factor=0)
        with pytest.raises(Exception):
            GeneratorConfig(n_phases=0)

    def test_k_prime(self):
        assert GeneratorConfig(k=3, pruning_diversity_factor=3).k_prime == 9
