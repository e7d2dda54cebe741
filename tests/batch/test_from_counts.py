"""Exact maps from counts: the kernel path against the scalar path.

``generate_from_counts`` scores every spec in one fused kernel pass under
the configurations the kernel covers, and the recommender's batched
previews are built by that same call over each winner's counts.  Both must
reproduce the scalar pipeline bit for bit (``result_fingerprint`` compares every count and
every DW utility exactly), under a non-empty display history so global
peculiarity reads the seen maps.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.core.generator as generator_module
import repro.core.phases as phases_module
from repro import SubDEx, SubDExConfig
from repro.core.distance import MapDistanceMethod
from repro.core.generator import GeneratorConfig, RMSetGenerator
from repro.core.normalization import NormalizationStrategy
from repro.core.rating_maps import enumerate_map_specs
from repro.core.recommend import RecommenderConfig
from repro.core.utility import SeenMaps
from repro.index.delta import direct_counts
from repro.index.verify import result_fingerprint
from repro.model.groups import RatingGroup, SelectionCriteria
from repro.resilience.gate import pressure_scope
from repro.server.app import preview_generator

GROUPS = [
    SelectionCriteria.root(),
    SelectionCriteria.of(reviewer={"gender": "F"}),
    SelectionCriteria.of(item={"city": "NYC"}),
    SelectionCriteria.of(reviewer={"age_group": "adult"}, item={"cuisine": "Pizza"}),
    SelectionCriteria.of(item={"city": "Atlantis"}),
]


def _seen_after_two_steps(db, generator: RMSetGenerator) -> SeenMaps:
    """A history holding the maps of two generated steps."""
    seen = SeenMaps(db.dimensions, n_attributes=len(db.grouping_attributes()))
    for criteria in GROUPS[:2]:
        for rating_map in generator.generate(RatingGroup(db, criteria), seen).selected:
            seen.add(rating_map)
    assert seen.pooled_distributions()
    return seen


def _from_counts(generator: RMSetGenerator, db, criteria, seen, k=None):
    """``generate_from_counts`` over direct scans of the group's rows."""
    rows = RatingGroup(db, criteria).rows
    return generator.generate_from_counts(
        criteria,
        tuple(enumerate_map_specs(db, criteria)),
        lambda spec: direct_counts(db, spec, rows),
        lambda spec: db.aligned_grouping(spec.side, spec.attribute).labels,
        int(rows.size),
        seen,
        k=k,
    )


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Counts the kernel finalisations ``generate_from_counts`` runs."""
    calls = []
    real = phases_module._kernel_family

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(phases_module, "_kernel_family", spy)
    return calls


@pytest.mark.parametrize("global_use_min", [True, False], ids=["min", "max"])
@pytest.mark.parametrize("missing", [0.0, 0.35], ids=["clean", "missing"])
def test_kernel_path_matches_scalar_path(
    batch_db_factory, monkeypatch, kernel_calls, global_use_min, missing
):
    db = batch_db_factory(seed=9, missing=missing, name=f"fc{missing}")
    base = GeneratorConfig()
    config = replace(
        base, utility=replace(base.utility, global_use_min=global_use_min)
    )
    generator = preview_generator(RMSetGenerator(config))
    seen = _seen_after_two_steps(db, generator)
    kernel_calls.clear()
    non_empty = 0
    for criteria in GROUPS:
        non_empty += bool(len(RatingGroup(db, criteria)))
        for k in (None, 2):
            kernel = _from_counts(generator, db, criteria, seen, k)
            with monkeypatch.context() as scalar_only:
                scalar_only.setattr(
                    generator_module, "supports_batch", lambda config: False
                )
                scalar = _from_counts(generator, db, criteria, seen, k)
            assert result_fingerprint(kernel) == result_fingerprint(scalar)
    # every non-empty group took the kernel path (an empty one returns early)
    assert non_empty >= 4
    assert len(kernel_calls) == 2 * non_empty


@pytest.mark.parametrize(
    "method", [MapDistanceMethod.POOLED, MapDistanceMethod.NESTED]
)
def test_other_map_distances_keep_the_kernel(
    batch_db_factory, monkeypatch, kernel_calls, method
):
    """Raw scores do not depend on the map distance, so only the
    recommender's GMM replay is limited to PROFILE, not kernel scoring."""
    db = batch_db_factory(seed=9, missing=0.35, name="fc-dist")
    generator = preview_generator(
        RMSetGenerator(replace(GeneratorConfig(), distance_method=method))
    )
    seen = _seen_after_two_steps(db, generator)
    kernel_calls.clear()
    for criteria in GROUPS[:4]:
        kernel = _from_counts(generator, db, criteria, seen, 2)
        with monkeypatch.context() as scalar_only:
            scalar_only.setattr(
                generator_module, "supports_batch", lambda config: False
            )
            scalar = _from_counts(generator, db, criteria, seen, 2)
        assert result_fingerprint(kernel) == result_fingerprint(scalar)
    assert len(kernel_calls) == 4


@pytest.mark.parametrize(
    "ablation",
    [
        lambda c: replace(c, diversity_only=True),
        lambda c: replace(
            c,
            utility=replace(
                c.utility, normalization=NormalizationStrategy.MINMAX
            ),
        ),
    ],
    ids=["diversity-only", "minmax"],
)
def test_uncovered_configs_take_the_scalar_path(
    batch_db_factory, kernel_calls, ablation
):
    db = batch_db_factory(seed=9, missing=0.35, name="fc-ablate")
    generator = preview_generator(RMSetGenerator(ablation(GeneratorConfig())))
    seen = _seen_after_two_steps(db, generator)
    kernel_calls.clear()
    for criteria in GROUPS:
        result = _from_counts(generator, db, criteria, seen)
        assert result.scores or criteria is GROUPS[-1]
    assert kernel_calls == []


@pytest.mark.parametrize("pressure", [False, True], ids=["calm", "pressure"])
@pytest.mark.parametrize("l", [3, 1], ids=["l3", "l1"])
def test_materialized_previews_match_generate_from_counts(
    batch_db_factory, pressure, l
):
    """Each returned preview equals a fresh ``generate_from_counts``.

    ``l = 1`` makes every pool at most k maps long (``k >= len(pool)``:
    GMM keeps the whole pool); under ``pressure_scope(True)`` the
    RM-Selector sheds GMM and the preview is flagged degraded.
    """
    db = batch_db_factory(seed=3, missing=0.25, name=f"prev{l}")
    config = SubDExConfig(
        generator=replace(GeneratorConfig(), pruning_diversity_factor=l),
        recommender=RecommenderConfig(max_values_per_attribute=3),
    )
    engine = SubDEx(db, config)
    generator = preview_generator(RMSetGenerator(config.generator))
    seen = _seen_after_two_steps(db, generator)
    k = config.generator.k
    for criteria in GROUPS[:3]:
        with pressure_scope(pressure):
            scored = engine.recommend(criteria, seen, o=4)
            assert scored
            for entry in scored:
                fresh = _from_counts(
                    generator, db, entry.operation.target, seen
                )
                assert result_fingerprint(entry.preview) == result_fingerprint(
                    fresh
                )
                assert entry.utility == fresh.total_utility()
                assert entry.preview.degraded is pressure
                if l == 1:
                    assert len(entry.preview.pool) <= k
    assert engine.recommender.batch_stats()["materialized"] >= 3
