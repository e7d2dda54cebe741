"""Algorithm 1's per-phase counts against an incremental scan.

:meth:`StepSlices.phase_counts` builds every phase's histograms of an
attribute in one keyed pass and a running sum.  The reference kept here is
the scan it replaced: the group's rows in the seeded permutation, and
phase ``i``'s counts one :func:`group_histograms` over the first ``b_i+1``
rows of it.  The phased executor must answer the same whether its counts
come from that reference, from fresh slices or from an index's kept root.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import SubDEx, SubDExConfig
from repro.core.generator import GeneratorConfig
from repro.core.phases import PhasedExecution
from repro.core.pruning import PruningStrategy, make_pruner
from repro.core.rating_maps import enumerate_map_specs
from repro.core.utility import SeenMaps
from repro.db.groupby import group_histograms, phase_bounds
from repro.index.cubes import StepSlices
from repro.index.verify import result_fingerprint
from repro.model.groups import RatingGroup, SelectionCriteria

ROOT = SelectionCriteria.root()


def _permutation(n: int, seed: int | None) -> np.ndarray:
    order = np.arange(n, dtype=np.int64)
    if seed is not None and n > 1:
        np.random.default_rng(seed).shuffle(order)
    return order


def reference_phase_counts(db, rows, spec, n_phases, seed) -> np.ndarray:
    """Cumulative phase histograms of ``spec`` by an incremental scan."""
    grouping = db.aligned_grouping(spec.side, spec.attribute)
    scores = db.dimension_scores(spec.dimension)
    scanned = rows[_permutation(rows.size, seed)]
    bounds = phase_bounds(rows.size, n_phases)
    return np.stack(
        [
            group_histograms(
                grouping.codes, grouping.n_groups, scores, db.scale,
                rows=scanned[: bounds[i + 1]],
            )
            for i in range(len(bounds) - 1)
        ]
    )


class ReferenceSlices:
    """What :class:`PhasedExecution` reads of slices, from the reference."""

    def __init__(self, db, rows) -> None:
        self._db, self._rows = db, rows

    def phase_counts(self, spec, n_phases, seed) -> np.ndarray:
        return reference_phase_counts(self._db, self._rows, spec, n_phases, seed)

    def labels(self, side, attribute) -> tuple:
        return self._db.aligned_grouping(side, attribute).labels


def _row_sets(db) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    return {
        "all": np.arange(db.n_ratings, dtype=np.int64),
        "subset": np.flatnonzero(rng.random(db.n_ratings) < 0.4).astype(np.int64),
        "one-row": np.array([int(rng.integers(db.n_ratings))], dtype=np.int64),
    }


@pytest.mark.parametrize("fixture", ["clean_db", "sparse_db"])
@pytest.mark.parametrize("rows_name", ["all", "subset", "one-row"])
@pytest.mark.parametrize("seed", [None, 0, 7])
def test_phase_counts_equal_incremental_scan(fixture, rows_name, seed, request):
    """Every spec — missing codes, invalid scores and the multi-valued
    attribute included — at every phase count, more phases than rows too."""
    db = request.getfixturevalue(fixture)
    rows = _row_sets(db)[rows_name]
    slices = StepSlices(db, rows)
    specs = tuple(enumerate_map_specs(db, ROOT))
    assert any(spec.attribute == "cuisine" for spec in specs)
    for n_phases in (1, 3, 10, rows.size + 5):
        n_slices = len(phase_bounds(rows.size, n_phases)) - 1
        for spec in specs:
            got = slices.phase_counts(spec, n_phases, seed)
            want = reference_phase_counts(db, rows, spec, n_phases, seed)
            assert got.shape[0] == n_slices
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got[-1], slices.group_hist(spec))
    # one build per attribute per (n_phases, seed), all dimensions at once
    attributes = {(spec.side, spec.attribute) for spec in specs}
    assert slices.phase_builds == 4 * len(attributes)


def test_phase_labels_are_narrow(clean_db):
    slices = StepSlices(clean_db, np.arange(clean_db.n_ratings, dtype=np.int64))
    labels = slices.phase_of(10, 0)
    assert labels.dtype == np.uint8
    assert np.bincount(labels).tolist() == np.diff(
        phase_bounds(clean_db.n_ratings, 10)
    ).tolist()


GROUPS = {
    "root": ROOT,
    "one-pair": SelectionCriteria.of(item={"city": "NYC"}),
    "multi-valued": SelectionCriteria.of(item={"cuisine": "Pizza"}),
}


@pytest.mark.parametrize("strategy", list(PruningStrategy))
@pytest.mark.parametrize("group_name", list(GROUPS))
@pytest.mark.parametrize("fixture", ["clean_db", "sparse_db"])
def test_phased_execution_same_from_every_count_source(
    fixture, group_name, strategy, request
):
    """Reference scan, fresh slices and the index's slices: one answer."""
    db = request.getfixturevalue(fixture)
    criteria = GROUPS[group_name]
    config = GeneratorConfig(pruning=strategy, n_phases=5, shuffle_seed=3)
    indexed = SubDEx(db, SubDExConfig(generator=config))
    group = RatingGroup(db, criteria)
    specs = tuple(enumerate_map_specs(db, criteria))
    sources = {
        "reference": ReferenceSlices(db, group.rows),
        "fresh": StepSlices(db, group.rows),
        "index": indexed.index.step_slices(criteria, group.rows),
    }
    outcomes = {}
    for name, slices in sources.items():
        execution = PhasedExecution(
            group,
            specs,
            SeenMaps(db.dimensions),
            config.utility,
            n_phases=config.n_phases,
            shuffle_seed=config.shuffle_seed,
            slices=slices,
        )
        result = execution.run(make_pruner(strategy, config.delta), 4)
        outcomes[name] = (
            [rm.spec for rm in result.ranked],
            {spec: s.dw_utility for spec, s in result.scores.items()},
            result.pruned,
            result.phases_run,
        )
    assert outcomes["fresh"] == outcomes["reference"]
    assert outcomes["index"] == outcomes["reference"]


@pytest.mark.parametrize("strategy", list(PruningStrategy))
@pytest.mark.parametrize("fixture", ["clean_db", "sparse_db"])
def test_indexed_and_unindexed_engines_agree(fixture, strategy, request):
    """Every §5 variant's RM-Sets, indexed or not, under a growing history."""
    db = request.getfixturevalue(fixture)
    config = GeneratorConfig(pruning=strategy)
    answers = []
    for use_index in (True, False):
        engine = SubDEx(db, SubDExConfig(generator=config, use_index=use_index))
        seen = SeenMaps(db.dimensions)
        results = []
        for criteria in (*GROUPS.values(), ROOT):
            result = engine.rating_maps(criteria, seen)
            results.append((result_fingerprint(result), result.pruned))
            for rating_map in result.selected:
                seen.add(rating_map)
        answers.append(results)
    assert answers[0] == answers[1]
