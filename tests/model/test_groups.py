"""Tests for repro.model.groups (criteria + rating groups)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import OperationError
from repro.model import AVPair, RatingGroup, SelectionCriteria, Side


class TestSelectionCriteria:
    def test_root_is_empty(self):
        assert len(SelectionCriteria.root()) == 0
        assert SelectionCriteria.root().describe() == "⟨entire database⟩"

    def test_of_constructor(self):
        c = SelectionCriteria.of(reviewer={"gender": "F"}, item={"city": "NYC"})
        assert AVPair(Side.REVIEWER, "gender", "F") in c
        assert AVPair(Side.ITEM, "city", "NYC") in c
        assert len(c) == 2

    def test_conflicting_values_rejected(self):
        with pytest.raises(OperationError):
            SelectionCriteria(
                [
                    AVPair(Side.REVIEWER, "gender", "F"),
                    AVPair(Side.REVIEWER, "gender", "M"),
                ]
            )

    def test_equality_and_hash(self):
        a = SelectionCriteria.of(reviewer={"gender": "F"})
        b = SelectionCriteria.of(reviewer={"gender": "F"})
        assert a == b and hash(a) == hash(b)

    def test_with_pair_adds(self):
        c = SelectionCriteria.root().with_pair(AVPair(Side.ITEM, "city", "NYC"))
        assert len(c) == 1

    def test_with_pair_replaces_value(self):
        c = SelectionCriteria.of(item={"city": "NYC"})
        c2 = c.with_pair(AVPair(Side.ITEM, "city", "Austin"))
        assert c2.side_pairs(Side.ITEM) == {"city": "Austin"}
        assert len(c2) == 1

    def test_without_pair(self):
        pair = AVPair(Side.ITEM, "city", "NYC")
        c = SelectionCriteria([pair])
        assert len(c.without_pair(pair)) == 0
        # removing an absent pair is a no-op
        assert c.without_pair(AVPair(Side.ITEM, "city", "LA")) == c

    def test_same_attribute_different_sides_allowed(self):
        c = SelectionCriteria(
            [
                AVPair(Side.REVIEWER, "state", "NY"),
                AVPair(Side.ITEM, "state", "TX"),
            ]
        )
        assert len(c) == 2

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ({"gender": "F"}, {"gender": "F"}, 0),
            ({"gender": "F"}, {}, 1),
            ({}, {"gender": "F"}, 1),
            ({"gender": "F"}, {"gender": "M"}, 1),  # change counts once
            ({"gender": "F"}, {"gender": "M", "age": "young"}, 2),
        ],
    )
    def test_edit_distance(self, a, b, expected):
        ca = SelectionCriteria.of(reviewer=a)
        cb = SelectionCriteria.of(reviewer=b)
        assert ca.edit_distance(cb) == expected
        assert cb.edit_distance(ca) == expected

    def test_predicate_per_side(self, tiny_db):
        c = SelectionCriteria.of(reviewer={"gender": "F"}, item={"city": "NYC"})
        reviewer_mask = tiny_db.reviewers.mask(c.predicate(Side.REVIEWER))
        genders = [
            tiny_db.reviewers.row(i)["gender"]
            for i in range(len(tiny_db.reviewers))
            if reviewer_mask[i]
        ]
        assert genders and all(g == "F" for g in genders)

    def test_serialised_pair_order_ignores_hash_seed(self):
        # criteria_to_json and the history log print a side's pairs as
        # side_pairs returns them; the bytes must not follow the hash seed
        script = """
import json
from types import SimpleNamespace
from repro.core.history import ExplorationLog
from repro.core.modes import ExplorationMode, ExplorationPath
from repro.model import SelectionCriteria
from repro.server.protocol import criteria_to_json
criteria = SelectionCriteria.of(
    reviewer={"gender": "F", "age": "18-24"},
    item={"city": "NYC", "cuisine": "Sushi"},
)
step = SimpleNamespace(
    index=0, criteria=criteria, result=SimpleNamespace(selected=()),
    group_size=0, operation=None, elapsed_seconds=0.0,
)
log = ExplorationLog.from_path(
    ExplorationPath(ExplorationMode.USER_DRIVEN, (step,)), dataset="x"
)
print(json.dumps(criteria_to_json(criteria)))
print(json.dumps(log.to_dict()))
"""
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                check=True,
            )
            outputs.add(completed.stdout)
        assert len(outputs) == 1, sorted(outputs)


class TestRatingGroup:
    def test_root_group_covers_everything(self, tiny_db):
        group = RatingGroup(tiny_db, SelectionCriteria.root())
        assert len(group) == tiny_db.n_ratings
        assert group.n_reviewers == len(tiny_db.reviewers)

    def test_filtered_group_consistent(self, tiny_db):
        criteria = SelectionCriteria.of(reviewer={"gender": "F"})
        group = RatingGroup(tiny_db, criteria)
        assert 0 < len(group) < tiny_db.n_ratings
        # every record's reviewer is F
        rows = group.rows
        aligned = tiny_db.aligned_grouping(Side.REVIEWER, "gender")
        labels = [aligned.labels[c] for c in aligned.codes[rows]]
        assert all(label == "F" for label in labels)

    def test_joint_criteria_intersects(self, tiny_db):
        both = RatingGroup(
            tiny_db,
            SelectionCriteria.of(reviewer={"gender": "F"}, item={"city": "NYC"}),
        )
        only_reviewer = RatingGroup(
            tiny_db, SelectionCriteria.of(reviewer={"gender": "F"})
        )
        assert len(both) <= len(only_reviewer)

    def test_multivalued_item_filter(self, tiny_db):
        group = RatingGroup(tiny_db, SelectionCriteria.of(item={"cuisine": "Pizza"}))
        assert len(group) > 0

    def test_empty_group(self, tiny_db):
        group = RatingGroup(
            tiny_db, SelectionCriteria.of(reviewer={"gender": "NOPE"})
        )
        assert group.is_empty

    def test_scores_subset(self, tiny_db):
        criteria = SelectionCriteria.of(reviewer={"gender": "F"})
        group = RatingGroup(tiny_db, criteria)
        assert len(group.scores("overall")) == len(group)

    def test_subgroup_codes_align_with_rows(self, tiny_db):
        group = RatingGroup(tiny_db, SelectionCriteria.root())
        codes = group.subgroup_codes(Side.ITEM, "city")
        assert len(codes) == len(group)
