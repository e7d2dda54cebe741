"""Tests for repro.db.groupby (groupings, histograms, phase slices)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import Table
from repro.db.groupby import (
    build_grouping,
    group_histograms,
    phase_slices,
)


@pytest.fixture()
def table() -> Table:
    return Table.from_columns(
        {"g": ["a", "b", "a", "c", None, "b"], "x": [1, 2, 3, 4, 5, None]}
    )


class TestBuildGrouping:
    def test_labels_and_codes(self, table):
        grouping = build_grouping(table, "g")
        assert set(grouping.labels) == {"a", "b", "c"}
        assert grouping.codes[4] == -1

    def test_group_sizes(self, table):
        grouping = build_grouping(table, "g")
        sizes = dict(zip(grouping.labels, grouping.group_sizes()))
        assert sizes == {"a": 2, "b": 2, "c": 1}


class TestGroupHistograms:
    def test_counts_match_naive(self):
        codes = np.array([0, 0, 1, 1, -1])
        scores = np.array([1.0, 5.0, 3.0, 3.0, 2.0])
        hist = group_histograms(codes, 2, scores, scale=5)
        assert hist[0].tolist() == [1, 0, 0, 0, 1]
        assert hist[1].tolist() == [0, 0, 2, 0, 0]

    def test_out_of_scale_ignored(self):
        codes = np.array([0, 0, 0])
        scores = np.array([0.0, 6.0, np.nan])
        hist = group_histograms(codes, 1, scores, scale=5)
        assert hist.sum() == 0

    def test_row_subset(self):
        codes = np.array([0, 0, 0])
        scores = np.array([1.0, 2.0, 3.0])
        hist = group_histograms(codes, 1, scores, scale=5, rows=np.array([1]))
        assert hist[0].tolist() == [0, 1, 0, 0, 0]


class TestPhaseSlices:
    def test_cover_exactly_once(self):
        blocks = phase_slices(17, 5)
        joined = np.concatenate(blocks)
        assert sorted(joined.tolist()) == list(range(17))

    def test_near_equal_sizes(self):
        sizes = [len(b) for b in phase_slices(100, 10)]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_rows_than_phases(self):
        blocks = phase_slices(3, 10)
        assert sum(len(b) for b in blocks) == 3

    def test_empty(self):
        blocks = phase_slices(0, 10)
        assert len(blocks) == 1 and len(blocks[0]) == 0

    @given(n=st.integers(0, 500), k=st.integers(1, 20))
    def test_property_partition(self, n, k):
        blocks = phase_slices(n, k)
        joined = np.concatenate(blocks) if blocks else np.array([])
        assert sorted(joined.tolist()) == list(range(n))
