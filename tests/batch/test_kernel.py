"""Fused family kernel vs the reference scorer, bit for bit.

``batch_family_scores`` documents a bitwise contract against the reference
pipeline: every (candidate, spec) cell must equal
:meth:`InterestingnessScorer.score` on that candidate's spec matrix —
including zeros for inactive (sub-support) cells, zero-group specs and
empty families — and ``batch_family_dw`` must equal
``score_candidate_set``'s DW utilities over each candidate's specs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.batch.kernel import SeenPooled, batch_family_dw, batch_family_scores
from repro.core.distributions import RatingDistribution
from repro.core.interestingness import (
    DispersionMeasure,
    InterestingnessScorer,
    PeculiarityDistance,
)
from repro.core.normalization import NormalizationStrategy
from repro.core.utility import (
    SeenMaps,
    UtilityAggregation,
    UtilityConfig,
    score_candidate_set,
)

MEASURES = [
    (dispersion, peculiarity)
    for dispersion in DispersionMeasure
    for peculiarity in PeculiarityDistance
]


def _random_family(rng, n, scale=5, n_specs=4, sparse=0.3):
    """Random per-spec count stacks with empty rows and tiny groups."""
    stacks = []
    for __ in range(n_specs):
        n_groups = int(rng.integers(2, 7))
        stack = rng.integers(0, 12, size=(n, n_groups, scale))
        stack[rng.random(stack.shape) < sparse] = 0
        # a few fully-empty subgroup rows and one empty candidate
        stack[:, int(rng.integers(n_groups))] = 0
        stack[int(rng.integers(n))] = 0
        stacks.append(stack.astype(np.int64))
    # group sizes dominate every spec's histogram total (missing values
    # only ever shrink a histogram relative to its group)
    group_sizes = rng.integers(1, 40, size=n) + np.stack(
        [stack.sum(axis=(1, 2)) for stack in stacks]
    ).max(axis=0)
    return stacks, group_sizes.astype(np.int64)


def _random_seen(rng, n_seen: int) -> SeenPooled:
    pooled = tuple(
        RatingDistribution(rng.integers(0, 30, size=5) + 1) for __ in range(n_seen)
    )
    probs = np.stack([q.probabilities() for q in pooled]) if pooled else None
    return SeenPooled(pooled, probs)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _assert_matches_reference(scores, stacks, group_sizes, seen, config):
    scorer = InterestingnessScorer(
        dispersion=config.dispersion,
        peculiarity=config.peculiarity,
        global_use_min=config.global_use_min,
        min_support=config.min_support,
    )
    assert scores.conciseness.shape == (len(group_sizes), len(stacks))
    for i, size in enumerate(group_sizes):
        for j, stack in enumerate(stacks):
            expected = scorer.score(stack[i], int(size), seen.distributions)
            assert scores.criterion_scores(i, j) == expected, (i, j)
            rows_with_ratings = int((stack[i].sum(axis=1) > 0).sum())
            assert scores.informative[i, j] == (rows_with_ratings >= 2), (i, j)


@pytest.mark.parametrize("trial", range(20))
def test_fused_scores_match_per_spec_reference(trial):
    rng = np.random.default_rng(trial)
    n = int(rng.integers(1, 9))
    stacks, group_sizes = _random_family(
        rng, n, n_specs=int(rng.integers(1, 6))
    )
    seen = _random_seen(rng, 0 if trial % 3 == 0 else int(rng.integers(1, 4)))
    dispersion, peculiarity = MEASURES[trial % len(MEASURES)]
    config = UtilityConfig(
        dispersion=dispersion,
        peculiarity=peculiarity,
        global_use_min=bool(trial % 2),
        min_support=int(rng.integers(1, 6)),
    )
    scores = batch_family_scores(stacks, group_sizes, seen, config)
    _assert_matches_reference(scores, stacks, group_sizes, seen, config)


def test_family_dw_matches_per_spec_columns():
    rng = np.random.default_rng(7)
    stacks, group_sizes = _random_family(rng, 6, n_specs=5)
    seen = _random_seen(rng, 2)
    weights = rng.uniform(0.2, 1.5, size=5)
    history = SeenMaps(("d",))
    for normalization in NormalizationStrategy:
        for aggregation in UtilityAggregation:
            config = UtilityConfig(
                normalization=normalization,
                aggregation=aggregation,
                use_dimension_weights=False,
                use_attribute_weights=False,
            )
            scores = batch_family_scores(stacks, group_sizes, seen, config)
            dw = batch_family_dw(scores, weights, config)
            assert dw.shape == (6, 5)
            for i in range(6):
                raw = {j: scores.criterion_scores(i, j) for j in range(5)}
                expected = score_candidate_set(
                    raw, dict.fromkeys(raw, "d"), history, config
                )
                for j in range(5):
                    reference = float(weights[j]) * expected[j].utility
                    assert _bits(dw[i, j]) == _bits(reference), (config, i, j)


def test_degenerate_shapes():
    config = UtilityConfig()
    sizes = np.array([10, 20], dtype=np.int64)
    seen = SeenPooled()
    # no specs at all
    empty = batch_family_scores([], sizes, seen, config)
    assert empty.conciseness.shape == (2, 0)
    assert batch_family_dw(empty, np.zeros(0), config).shape == (2, 0)
    assert batch_family_dw(
        empty, np.zeros(0), replace(config, normalization=NormalizationStrategy.MINMAX)
    ).shape == (2, 0)
    # a zero-group spec scores a zero column beside a filled one
    stacks = [
        np.zeros((2, 0, 5), dtype=np.int64),
        np.ones((2, 3, 5), dtype=np.int64),
    ]
    scores = batch_family_scores(stacks, sizes, seen, config)
    assert not scores.informative[:, 0].any()
    assert scores.informative[:, 1].all()
    _assert_matches_reference(scores, stacks, sizes, seen, config)
    # no candidates
    none = batch_family_scores(
        [np.zeros((0, 3, 5), dtype=np.int64)],
        np.zeros(0, dtype=np.int64),
        seen,
        config,
    )
    assert none.conciseness.shape == (0, 1)
    assert none.informative.shape == (0, 1)


def test_zeroed_candidates_score_zero():
    """A candidate with every row below support gets zero everywhere but
    stays informative when two rows hold any ratings at all."""
    stack = np.zeros((1, 3, 5), dtype=np.int64)
    stack[0, 0, 0] = 1
    stack[0, 1, 1] = 1
    scores = batch_family_scores(
        [stack], np.array([100], dtype=np.int64), SeenPooled(), UtilityConfig()
    )
    assert scores.informative[0, 0]  # two non-empty rows
    assert scores.n_subgroups[0, 0] == 0  # but neither passes support
    assert scores.agreement[0, 0] == 0.0
    assert scores.pec_self[0, 0] == 0.0
    assert scores.conciseness[0, 0] == 0.0
