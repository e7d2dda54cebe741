"""Cube slices and delta-maintained histograms against direct scans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rating_maps import enumerate_map_specs
from repro.db.types import ColumnType
from repro.index.cubes import StepSlices, axis_for
from repro.index.delta import (
    delta_counts,
    direct_counts,
    prefer_delta,
    split_rows,
)
from repro.model.database import Side
from repro.model.groups import AVPair, RatingGroup, SelectionCriteria


def _parent_rows(db, seed=0):
    rng = np.random.default_rng(seed)
    mask = rng.random(db.n_ratings) < 0.7
    return np.flatnonzero(mask).astype(np.int64)


@pytest.mark.parametrize("fixture", ["clean_db", "sparse_db"])
def test_group_hist_equals_direct_scan(fixture, request):
    db = request.getfixturevalue(fixture)
    rows = _parent_rows(db)
    slices = StepSlices(db, rows)
    for spec in enumerate_map_specs(db, SelectionCriteria.root()):
        np.testing.assert_array_equal(
            slices.group_hist(spec), direct_counts(db, spec, rows)
        )


#: database shapes for the two ``group_hist`` branches: an entity side
#: aggregates when ``n_entities * (scale + 1) <= rows``.  "few-items" has
#: far fewer items than rows and more reviewers than rows; "few-reviewers"
#: the reverse.
HIST_SHAPES = {
    "few-items": dict(n_users=900, n_items=6, n_ratings=1200),
    "few-reviewers": dict(n_users=10, n_items=700, n_ratings=1200),
}


def _hist_group(db, group: str) -> SelectionCriteria:
    """One group of each shape over a :func:`make_db` database."""
    if group == "one-pair":
        return SelectionCriteria.of(reviewer={"gender": "F"})
    if group == "multi-valued":  # the most common cuisine, so never empty
        cuisine = db.items.column("cuisine")
        flat, __ = cuisine.membership()
        top = int(np.bincount(flat).argmax())
        return SelectionCriteria.of(item={"cuisine": cuisine.members[top]})
    if group == "empty":
        return SelectionCriteria.of(item={"city": "Atlantis"})
    return SelectionCriteria.root()


@pytest.mark.parametrize("group", ["root", "one-pair", "multi-valued", "empty"])
@pytest.mark.parametrize("branch", ["entity", "rows", "natural"])
@pytest.mark.parametrize("shape", list(HIST_SHAPES))
def test_group_hist_branches_equal_direct_scan(
    db_factory, monkeypatch, shape, branch, group
):
    """Entity-aggregated and row-level histograms equal a direct scan.

    ``branch`` forces either side of the ``_entity_cheap`` choice, or
    leaves it to the shape; missing values, NaN scores, the multi-valued
    cuisine attribute and an empty group are all covered.
    """
    db = db_factory(seed=5, missing=0.3, name=shape, **HIST_SHAPES[shape])
    rows = RatingGroup(db, _hist_group(db, group)).rows
    assert (rows.size == 0) == (group == "empty")
    slices = StepSlices(db, rows)
    if group == "root" and branch == "natural":
        few, many = (
            (Side.ITEM, Side.REVIEWER)
            if shape == "few-items"
            else (Side.REVIEWER, Side.ITEM)
        )
        assert slices._entity_cheap(few) and not slices._entity_cheap(many)
    if branch != "natural":
        monkeypatch.setattr(
            slices, "_entity_cheap", lambda side: branch == "entity"
        )
    for spec in enumerate_map_specs(db, SelectionCriteria.root()):
        hist = slices.group_hist(spec)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, direct_counts(db, spec, rows)), spec


@pytest.mark.parametrize("fixture", ["clean_db", "sparse_db"])
@pytest.mark.parametrize(
    "side,attribute",
    [(Side.REVIEWER, "gender"), (Side.REVIEWER, "age"), (Side.ITEM, "city")],
)
def test_cube_slices_equal_per_value_scans(fixture, side, attribute, request):
    """Every value's (n_groups, scale) slice == a scan of that child's rows."""
    db = request.getfixturevalue(fixture)
    rows = _parent_rows(db, seed=1)
    axis = axis_for(db, side, attribute)
    assert axis is not None
    slices = StepSlices(db, rows)
    specs = [
        s
        for s in enumerate_map_specs(db, SelectionCriteria.root())
        if not (s.side is side and s.attribute == attribute)
    ]
    grouping = db.aligned_grouping(side, attribute)
    sizes = slices.sizes(side, attribute)
    for code, label in enumerate(axis.labels):
        child_rows = rows[grouping.codes[rows] == code]
        assert sizes[code] == child_rows.size
        assert axis.code_of(label) == code
        for spec in specs:
            np.testing.assert_array_equal(
                slices.cube_slice((side, attribute), spec)[code],
                direct_counts(db, spec, child_rows),
            )


def test_multi_valued_attribute_has_no_axis(clean_db):
    assert axis_for(clean_db, Side.ITEM, "cuisine") is None
    assert (
        clean_db.entity_table(Side.ITEM).column("cuisine").type
        is ColumnType.MULTI_VALUED
    )


def test_pair_hist_shared_across_orientations(clean_db):
    slices = StepSlices(clean_db, _parent_rows(clean_db))
    a, b = (Side.REVIEWER, "gender"), (Side.ITEM, "city")
    forward = slices.pair_hist(a, b, "overall")
    backward = slices.pair_hist(b, a, "overall")
    np.testing.assert_array_equal(forward, backward.transpose(1, 0, 2))
    assert slices.pair_builds == 1


def test_empty_parent_rows_yield_zero_histograms(clean_db):
    slices = StepSlices(clean_db, np.empty(0, dtype=np.int64))
    spec = next(iter(enumerate_map_specs(clean_db, SelectionCriteria.root())))
    assert slices.group_hist(spec).sum() == 0
    assert slices.sizes(Side.REVIEWER, "gender").sum() == 0


def test_delta_counts_equal_direct(clean_db):
    db = clean_db
    parent = RatingGroup(
        db, SelectionCriteria((AVPair(Side.REVIEWER, "gender", "F"),))
    )
    # a CHANGE sibling: overlaps the parent on the item side only
    child = RatingGroup(
        db,
        SelectionCriteria(
            (AVPair(Side.REVIEWER, "gender", "M"),)
        ),
    )
    removed, added = split_rows(parent.rows, child.rows)
    assert prefer_delta(removed, added, child.rows.size) in (True, False)
    for spec in enumerate_map_specs(db, SelectionCriteria.root()):
        parent_counts = direct_counts(db, spec, parent.rows)
        np.testing.assert_array_equal(
            delta_counts(db, spec, parent_counts, removed, added),
            direct_counts(db, spec, child.rows),
        )
