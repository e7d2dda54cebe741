"""Ablation — the sharing optimization (paper §4.2.1, "Combining Multiple
Aggregates").

Rating maps that group by the same attribute share one scan in SubDEx: a
step's :class:`~repro.index.cubes.StepSlices` builds each attribute's
key once and every rating dimension's histogram is one ``bincount``
against it (:meth:`~repro.index.cubes.StepSlices.group_hist`; on a side
with few entities one per-entity pass per dimension serves every
attribute of the side).  The unshared alternative re-encodes the
grouping and re-aligns it to the ratings per (attribute, dimension) pair.
This bench times exactly that: the histograms of every candidate map of
the root group on the Yelp-like dataset — with 4 rating dimensions the
shared plan touches each attribute's codes once instead of four times.
"""

import numpy as np

from repro.bench import Metric, format_table, report, time_call
from repro.core.rating_maps import RatingMapSpec
from repro.datasets import yelp
from repro.db.groupby import build_grouping, group_histograms
from repro.index.cubes import StepSlices
from repro.model import RatingGroup, SelectionCriteria


def _specs(database) -> list[RatingMapSpec]:
    return [
        RatingMapSpec(side, attribute, dim)
        for side, attribute in database.grouping_attributes()
        for dim in database.dimensions
    ]


def _shared_pass(database, group) -> list[np.ndarray]:
    """The engine's plan: fresh step slices, one key per attribute."""
    slices = StepSlices(database, group.rows)
    return [slices.group_hist(spec) for spec in _specs(database)]


def _unshared_pass(database, group) -> list[np.ndarray]:
    """One independent GROUP BY per (attribute, dimension) pair.

    This is SeeDB's un-shared plan: every view issues its own grouping
    query, so the dictionary encoding and the record alignment are redone
    per view rather than once per attribute.
    """
    histograms = []
    for spec in _specs(database):
        entity_grouping = build_grouping(
            database.entity_table(spec.side), spec.attribute
        )
        codes = entity_grouping.codes[
            database.entity_rows_for_ratings(spec.side)
        ][group.rows]
        histograms.append(
            group_histograms(
                codes,
                entity_grouping.n_groups,
                group.scores(spec.dimension),
                database.scale,
            )
        )
    return histograms


def test_ablation_sharing(benchmark):
    def run():
        # scan-dominated regime: sharing saves per-attribute code slicing,
        # which only matters once the group is large
        database = yelp(seed=3, scale_factor=0.25)
        group = RatingGroup(database, SelectionCriteria.root())
        shared, shared_seconds = time_call(
            lambda: _shared_pass(database, group), repeats=5
        )
        unshared, unshared_seconds = time_call(
            lambda: _unshared_pass(database, group), repeats=5
        )
        # identical histograms, map by map
        assert len(shared) == len(unshared)
        assert all(np.array_equal(a, b) for a, b in zip(shared, unshared))
        return shared_seconds, unshared_seconds

    shared_seconds, unshared_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = unshared_seconds / max(shared_seconds, 1e-9)
    text = (
        "== Ablation: sharing optimization (Combining Multiple Aggregates) ==\n"
        + format_table(
            ["plan", "seconds"],
            [
                ["StepSlices.group_hist (SubDEx)", shared_seconds],
                ["one scan per (attribute, dimension)", unshared_seconds],
            ],
            "{:.4f}",
        )
        + f"\nspeedup from sharing: {speedup:.2f}× "
        "(paper §4.2.1: maps with the same grouping attribute are combined "
        "into a single multi-aggregate query)."
    )
    report(
        "ablation_sharing",
        text,
        metrics={
            "shared_seconds": shared_seconds,
            "unshared_seconds": unshared_seconds,
            "sharing_speedup": Metric(
                speedup, unit="x", higher_is_better=True, portable=True
            ),
        },
        config={"dataset": "yelp", "scale_factor": 0.25},
    )
    # sharing must not lose; with 4 dimensions it should clearly win
    assert shared_seconds <= unshared_seconds * 1.1
