"""Vectorised pool ranking: identical pools and bounds, ties included.

:func:`repro.batch.scoring.pools_and_bounds` ranks a whole family with
one ``lexsort`` over ``-dw`` and a precomputed spec rank.  It must
reproduce the per-candidate ``sorted(key=(-dw, spec))`` ranking exactly —
which matters most when DW scores tie, as zeroed (uninformative) specs
and equal-weight MAX aggregations routinely do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.scoring import pools_and_bounds
from repro.core.rating_maps import RatingMapSpec
from repro.model.database import Side


def _pools_and_bounds_sorted(dw, informative, specs, k, k_prime):
    """The per-candidate reference: one Python ``sorted`` per candidate."""
    bounds = np.zeros(dw.shape[0])
    pools = []
    for c in range(dw.shape[0]):
        order = sorted(range(len(specs)), key=lambda j: (-dw[c, j], specs[j]))
        pool = [j for j in order[:k_prime] if informative[c, j]]
        pools.append(pool)
        if pool:
            bounds[c] = float(sum(dw[c, j] for j in pool[:k]))
    return pools, bounds


def _specs(rng: np.random.Generator) -> tuple[RatingMapSpec, ...]:
    """Specs in a shuffled order, so spec index order ≠ spec sort order."""
    specs = [
        RatingMapSpec(side, attribute, dimension)
        for side in (Side.REVIEWER, Side.ITEM)
        for attribute in ("age", "city", "gender")
        for dimension in ("food", "overall")
    ]
    return tuple(specs[i] for i in rng.permutation(len(specs)))


def _assert_same(dw, informative, specs, k, k_prime) -> None:
    pools, bounds = pools_and_bounds(dw, informative, specs, k, k_prime)
    ref_pools, ref_bounds = _pools_and_bounds_sorted(
        dw, informative, specs, k, k_prime
    )
    assert pools == ref_pools
    assert bounds.tobytes() == ref_bounds.tobytes()


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k, k_prime", [(1, 1), (3, 6), (3, 20), (5, 3)])
def test_lexsort_matches_sorted_with_ties(seed, k, k_prime):
    rng = np.random.default_rng(seed)
    specs = _specs(rng)
    # a handful of distinct values (signed zeros included): most rows tie
    values = np.array([0.0, -0.0, 0.125, 0.3, 0.3, 0.7, 1.0 / 3.0])
    dw = rng.choice(values, size=(9, len(specs)))
    informative = rng.random(dw.shape) < 0.7
    _assert_same(dw, informative, specs, k, k_prime)


def test_all_tied_scores_rank_by_spec():
    rng = np.random.default_rng(0)
    specs = _specs(rng)
    dw = np.full((2, len(specs)), 0.5)
    informative = np.ones(dw.shape, dtype=bool)
    pools, bounds = pools_and_bounds(dw, informative, specs, 3, 4)
    by_spec = sorted(range(len(specs)), key=specs.__getitem__)[:4]
    assert pools == [by_spec, by_spec]
    assert list(bounds) == [1.5, 1.5]
    _assert_same(dw, informative, specs, 3, 4)


def test_uninformative_top_specs_shrink_the_pool():
    """The pool is the top-k' *then* filtered, never refilled from below."""
    specs = _specs(np.random.default_rng(1))
    dw = np.zeros((1, len(specs)))
    dw[0, :3] = [0.9, 0.8, 0.7]
    informative = np.ones(dw.shape, dtype=bool)
    informative[0, 0] = False
    pools, bounds = pools_and_bounds(dw, informative, specs, 3, 2)
    assert pools == [[1]]
    assert bounds[0] == 0.8
    _assert_same(dw, informative, specs, 3, 2)


def test_empty_family():
    specs = _specs(np.random.default_rng(2))
    dw = np.zeros((0, len(specs)))
    pools, bounds = pools_and_bounds(dw, dw.astype(bool), specs, 3, 6)
    assert pools == [] and bounds.shape == (0,)
