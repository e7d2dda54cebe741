"""Sufficient-statistic index layer (see `docs/PERFORMANCE.md`).

Turns the Recommendation Builder's per-candidate full scans into posting
list intersections, fused candidate-cube slices (over the parent or a
sibling group), containment families and delta-maintained histograms —
same integers, computed along cheaper routes.
"""

from .cubes import (
    CandidateCube,
    ContainmentFamily,
    FilterAxis,
    StepSlices,
    axis_for,
    cube_cells,
)
from .delta import delta_counts, direct_counts, prefer_delta, split_rows
from .facade import IndexedDatabase, NeighborhoodContext
from .postings import PostingList, PostingListStore

__all__ = [
    "CandidateCube",
    "ContainmentFamily",
    "FilterAxis",
    "IndexedDatabase",
    "NeighborhoodContext",
    "PostingList",
    "PostingListStore",
    "StepSlices",
    "axis_for",
    "cube_cells",
    "delta_counts",
    "direct_counts",
    "prefer_delta",
    "split_rows",
]
