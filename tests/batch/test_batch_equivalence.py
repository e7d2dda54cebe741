"""Batched vs indexed vs naive: exact fingerprint equivalence.

The batched path must be *fingerprint-identical* (exact float equality,
via :func:`repro.index.verify.diff_recommendations`) to the naive
full-pipeline oracle — across missing values, multi-valued attributes,
NaN scores, empty groups and every quality-ladder rung.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import SubDEx, SubDExConfig
from repro.anytime import QualityLadder, QualityRung
from repro.core.distance import MapDistanceMethod
from repro.core.normalization import NormalizationStrategy
from repro.core.recommend import RecommenderConfig
from repro.core.utility import SeenMaps
from repro.index.verify import diff_recommendations
from repro.model.database import Side
from repro.model.groups import AVPair, SelectionCriteria

EVERYTHING = 10**6


def _seen(engine) -> SeenMaps:
    return SeenMaps(
        engine.database.dimensions,
        n_attributes=len(engine.database.grouping_attributes()),
    )


def _keys(scored) -> list[tuple[str, float]]:
    return [(s.describe(), s.utility) for s in scored]


@pytest.mark.parametrize(
    "missing",
    [0.0, 0.35, 0.6],
    ids=["clean", "missing", "sparse"],
)
def test_recommend_matches_naive_oracle(
    batch_db_factory, batch_engine_factory, missing
):
    """Root-level top-o: batched == indexed == naive, bit for bit.

    ``missing`` > 0 puts NaN scores in the rating columns, drops grouping
    values (empty-label groups) and empties some cuisine sets; 0.6 leaves
    several attribute values with empty or sub-floor groups.
    """
    def db():
        return batch_db_factory(seed=11, missing=missing, name=f"m{missing}")

    naive = batch_engine_factory(db(), use_index=False, batch=False)
    indexed = batch_engine_factory(db(), use_index=True, batch=False)
    batched = batch_engine_factory(db(), use_index=True, batch=True)
    oracle = naive.recommend(o=7)
    assert not diff_recommendations(oracle, indexed.recommend(o=7))
    assert not diff_recommendations(oracle, batched.recommend(o=7))
    stats = batched.recommender.batch_stats()
    assert stats["requests"] == 1
    # multi-valued cuisine FILTERs ride the residue (rows) path, clean
    # single-valued FILTERs the family path — both count as batched
    assert stats["batched"] > 0
    assert stats["families"] > 0
    assert indexed.recommender.batch_stats()["requests"] == 0


def test_recommend_matches_after_a_filter_step(
    batch_db_factory, batch_engine_factory
):
    """Equivalence away from the root (delta-maintained neighbourhoods)."""
    criteria = SelectionCriteria((AVPair(Side.REVIEWER, "gender", "F"),))
    naive = batch_engine_factory(
        batch_db_factory(seed=5, missing=0.2, name="stepdb"),
        use_index=False,
        batch=False,
    )
    batched = batch_engine_factory(
        batch_db_factory(seed=5, missing=0.2, name="stepdb")
    )
    oracle = naive.recommend(criteria, o=7)
    assert not diff_recommendations(oracle, batched.recommend(criteria, o=7))


def test_session_recommendations_identical_across_steps(
    batch_db_factory, batch_engine_factory
):
    """A whole exploration session: seen-map state feeds back identically."""
    records = {}
    for name, batch in [("indexed", False), ("batched", True)]:
        engine = batch_engine_factory(
            batch_db_factory(seed=2, missing=0.25, name="sessiondb"),
            batch=batch,
        )
        session = engine.session()
        records[name] = [
            _keys(session.step(with_recommendations=True).recommendations)
            for __ in range(3)
        ]
    assert records["indexed"] == records["batched"]


@pytest.mark.parametrize("missing", [0.0, 0.3], ids=["clean", "missing"])
def test_every_ladder_rung_matches_unbatched(
    batch_db_factory, batch_engine_factory, missing
):
    """Each rung's cap/stride slices the same candidates either way."""
    def engine(batch):
        return batch_engine_factory(
            batch_db_factory(seed=3, missing=missing, name=f"rung{missing}"),
            batch=batch,
        )

    unbatched, batched = engine(False), engine(True)
    ladder = QualityLadder()
    for rung in QualityRung:
        plan = ladder.plan(rung)
        if plan.use_cached:
            continue
        results = {}
        for name, eng in [("unbatched", unbatched), ("batched", batched)]:
            results[name] = eng.recommender.recommend_anytime(
                SelectionCriteria.root(),
                _seen(eng),
                o=EVERYTHING,
                plan=plan,
            )
        assert _keys(results["unbatched"].recommendations) == _keys(
            results["batched"].recommendations
        ), rung
        assert (
            results["unbatched"].completeness.candidates_scanned
            == results["batched"].completeness.candidates_scanned
        ), rung


def test_uncovered_utility_config_falls_back(batch_db_factory):
    """Non-SQUASH normalisation is outside the kernel contract: the
    request silently takes the per-candidate path and stays correct."""
    def config(use_index):
        base = SubDExConfig(
            use_index=use_index,
            recommender=RecommenderConfig(max_values_per_attribute=3),
        )
        generator = replace(
            base.generator,
            utility=replace(
                base.generator.utility,
                normalization=NormalizationStrategy.MINMAX,
            ),
        )
        return replace(base, generator=generator)

    naive = SubDEx(batch_db_factory(seed=4, name="ablate"), config(False))
    batched = SubDEx(batch_db_factory(seed=4, name="ablate"), config(True))
    oracle = naive.recommend(o=5)
    assert not diff_recommendations(oracle, batched.recommend(o=5))
    assert batched.recommender.batch_stats()["requests"] == 0


@pytest.mark.parametrize(
    "method", [MapDistanceMethod.POOLED, MapDistanceMethod.NESTED]
)
def test_uncovered_distance_method_falls_back(batch_db_factory, method):
    """The batched evaluation replays GMM on PROFILE distances only, so
    other map distances take the per-candidate path and stay correct."""
    def config(use_index):
        base = SubDExConfig(
            use_index=use_index,
            recommender=RecommenderConfig(max_values_per_attribute=3),
        )
        return replace(
            base, generator=replace(base.generator, distance_method=method)
        )

    naive = SubDEx(batch_db_factory(seed=4, missing=0.2, name="dist"), config(False))
    batched = SubDEx(batch_db_factory(seed=4, missing=0.2, name="dist"), config(True))
    assert not diff_recommendations(naive.recommend(o=5), batched.recommend(o=5))
    assert batched.recommender.batch_stats()["requests"] == 0


def test_anytime_unbudgeted_equals_one_shot(
    batch_db_factory, batch_engine_factory
):
    """Unbudgeted anytime runs the one-shot scan: same exact utilities,
    same top-o, bit for bit — and the same batching work."""
    engine = batch_engine_factory(
        batch_db_factory(seed=8, missing=0.15, name="anytimedb")
    )
    work = ("families", "candidates", "scored", "evaluated", "pruned",
            "materialized")
    stats = engine.recommender.batch_stats
    before = stats()
    plain = engine.recommend(o=6)
    middle = stats()
    result = engine.recommender.recommend_anytime(
        SelectionCriteria.root(), _seen(engine), o=6
    )
    after = stats()
    assert result.completeness.complete
    assert not diff_recommendations(plain, list(result.recommendations))
    assert {key: middle[key] - before[key] for key in work} == {
        key: after[key] - middle[key] for key in work
    }
