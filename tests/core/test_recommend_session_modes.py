"""Tests for the Recommendation Builder, sessions, modes and engine facade."""

import pytest

from repro import (
    ExplorationMode,
    SelectionCriteria,
    SubDEx,
    SubDExConfig,
)
from repro.core.modes import (
    run_fully_automated,
    run_recommendation_powered,
    run_user_driven,
)
from repro.core.recommend import RecommenderConfig
from repro.core.utility import SeenMaps
from repro.exceptions import EmptyGroupError
from repro.model import OperationKind


class TestRecommendationBuilder:
    def test_returns_top_o(self, tiny_engine):
        recos = tiny_engine.recommend()
        assert len(recos) == 3

    def test_sorted_by_utility(self, tiny_engine):
        recos = tiny_engine.recommend(o=5)
        utilities = [r.utility for r in recos]
        assert utilities == sorted(utilities, reverse=True)

    def test_no_empty_groups_recommended(self, tiny_engine):
        for reco in tiny_engine.recommend(o=10):
            assert reco.preview.selected

    def test_sequential_equals_parallel(self, tiny_db):
        # parallel only changes the naive per-candidate path; an indexed
        # engine batch-scores on the request's thread
        criteria = SelectionCriteria.of(reviewer={"gender": "F"})
        parallel = SubDEx(
            tiny_db,
            SubDExConfig(
                use_index=False,
                recommender=RecommenderConfig(
                    max_values_per_attribute=3, parallel=True
                ),
            ),
        ).recommend(criteria)
        sequential = SubDEx(
            tiny_db,
            SubDExConfig(
                use_index=False,
                recommender=RecommenderConfig(
                    max_values_per_attribute=3, parallel=False
                ),
            ),
        ).recommend(criteria)
        assert [r.target for r in parallel] == [r.target for r in sequential]
        for p, s in zip(parallel, sequential):
            assert p.utility == pytest.approx(s.utility)

    def test_utility_is_eq2_sum(self, tiny_engine):
        reco = tiny_engine.recommend(o=1)[0]
        assert reco.utility == pytest.approx(reco.preview.total_utility())

    def test_candidate_operations_exposed(self, tiny_engine):
        ops = tiny_engine.recommender.candidate_operations(
            SelectionCriteria.root()
        )
        assert ops and all(op.kind is OperationKind.FILTER for op in ops)


class TestSession:
    def test_first_step_examines_start(self, tiny_engine):
        session = tiny_engine.session()
        record = session.step()
        assert record.index == 1
        assert record.criteria == SelectionCriteria.root()
        assert len(record.maps) == 3

    def test_seen_maps_accumulate(self, tiny_engine):
        session = tiny_engine.session()
        session.step()
        assert session.seen.total == 3
        session.apply_criteria(SelectionCriteria.of(reviewer={"gender": "F"}))
        assert session.seen.total == 6

    def test_step_with_operation_moves_criteria(self, tiny_engine):
        session = tiny_engine.session()
        session.step()
        recos = session.recommendations(o=1)
        record = session.step(recos[0].operation)
        assert record.criteria == recos[0].target
        assert session.criteria == recos[0].target

    def test_empty_start_rejected(self, tiny_engine):
        with pytest.raises(EmptyGroupError):
            tiny_engine.session(SelectionCriteria.of(reviewer={"gender": "X"}))

    def test_step_records_timing(self, tiny_engine):
        record = tiny_engine.session().step()
        assert record.elapsed_seconds > 0

    def test_describe_runs(self, tiny_engine):
        record = tiny_engine.session().step(with_recommendations=True)
        text = record.describe()
        assert "Step 1" in text


class TestModes:
    def test_fully_automated_path_length(self, tiny_engine):
        path = run_fully_automated(tiny_engine.session(), n_steps=3)
        assert path.mode is ExplorationMode.FULLY_AUTOMATED
        assert len(path) == 3

    def test_fully_automated_applies_top1(self, tiny_engine):
        path = run_fully_automated(tiny_engine.session(), n_steps=2)
        first_recos = path.steps[0].recommendations
        assert path.steps[1].criteria == first_recos[0].target

    def test_user_driven_with_stopping_chooser(self, tiny_engine):
        path = run_user_driven(
            tiny_engine.session(), lambda s, c: None, n_steps=5
        )
        assert len(path) == 1

    def test_user_driven_chooser_receives_candidates(self, tiny_engine):
        seen_candidates = []

        def chooser(session, candidates):
            seen_candidates.append(len(candidates))
            return candidates[0] if candidates else None

        path = run_user_driven(tiny_engine.session(), chooser, n_steps=3)
        assert len(path) == 3
        assert all(n > 0 for n in seen_candidates)

    def test_recommendation_powered_follows_chooser(self, tiny_engine):
        def chooser(session, recommendations):
            return recommendations[0].operation if recommendations else None

        path = run_recommendation_powered(tiny_engine.session(), chooser, 3)
        assert path.mode is ExplorationMode.RECOMMENDATION_POWERED
        assert len(path) == 3

    def test_all_maps_collects_everything(self, tiny_engine):
        path = run_fully_automated(tiny_engine.session(), n_steps=2)
        assert len(path.all_maps()) == sum(
            len(s.result.selected) for s in path.steps
        )

    def test_describe(self, tiny_engine):
        path = run_fully_automated(tiny_engine.session(), n_steps=2)
        assert "fully-automated" in path.describe()


class TestEngineFacade:
    def test_rating_maps_default_root(self, tiny_engine):
        result = tiny_engine.rating_maps()
        assert len(result.selected) == 3

    def test_config_fluent_tweaks(self):
        config = SubDExConfig().with_k(5).with_l(2).with_o(7)
        assert config.generator.k == 5
        assert config.generator.pruning_diversity_factor == 2
        assert config.recommender.o == 7

    def test_seen_threading(self, tiny_engine, tiny_db):
        seen = SeenMaps(tiny_db.dimensions)
        first = tiny_engine.rating_maps(seen=seen)
        for rm in first.selected:
            seen.add(rm)
        second = tiny_engine.rating_maps(seen=seen)
        assert second.selected  # global peculiarity path exercised

    def test_explore_automated_entry_point(self, tiny_engine):
        path = tiny_engine.explore_automated(2)
        assert len(path) == 2


class TestVisitedFiltering:
    def test_exclude_targets_drops_candidates(self, tiny_engine, tiny_db):
        from repro.core.utility import SeenMaps

        seen = SeenMaps(tiny_db.dimensions)
        criteria = SelectionCriteria.root()
        stock = tiny_engine.recommender.recommend(criteria, seen, o=5)
        excluded = {stock[0].target}
        filtered = tiny_engine.recommender.recommend(
            criteria, seen, o=5, exclude_targets=excluded
        )
        assert stock[0].target not in [r.target for r in filtered]

    def test_exclude_everything_falls_back(self, tiny_engine, tiny_db):
        """If every candidate is excluded, recommendations still appear."""
        from repro.core.utility import SeenMaps

        seen = SeenMaps(tiny_db.dimensions)
        criteria = SelectionCriteria.root()
        all_ops = tiny_engine.recommender.candidate_operations(criteria)
        excluded = {op.target for op in all_ops}
        recos = tiny_engine.recommender.recommend(
            criteria, seen, exclude_targets=excluded
        )
        assert recos  # graceful fallback, not an empty screen

    def test_redundant_group_operations_skipped(self, tiny_engine, tiny_db):
        """An operation selecting the same records is not a real move."""
        recos = tiny_engine.recommend(SelectionCriteria.root(), o=20)
        root_size = tiny_db.n_ratings
        for reco in recos:
            from repro.model import RatingGroup

            assert len(RatingGroup(tiny_db, reco.target)) < root_size

    def test_session_recommendations_avoid_history(self, tiny_engine):
        session = tiny_engine.session()
        first = session.step(with_recommendations=True)
        move = first.recommendations[0].operation
        second = session.step(move, with_recommendations=True)
        targets = [r.target for r in second.recommendations]
        assert SelectionCriteria.root() not in targets
        assert move.target not in targets
