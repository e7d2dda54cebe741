"""Rating maps (paper Definition 2) and candidate enumeration.

A rating map partitions a rating group by one reviewer/item attribute and
aggregates one rating dimension per subgroup.  The identity of a candidate
map — before any data is scanned — is its :class:`RatingMapSpec`; the
materialised object is :class:`RatingMap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from ..model.database import Side, SubjectiveDatabase
from ..model.groups import RatingGroup, SelectionCriteria
from .distributions import RatingDistribution

__all__ = [
    "RatingMapSpec",
    "Subgroup",
    "RatingMap",
    "enumerate_map_specs",
    "build_rating_map",
]


@dataclass(frozen=True, order=True)
class RatingMapSpec:
    """Identity of a candidate rating map: GroupBy attribute × dimension."""

    side: Side
    attribute: str
    dimension: str

    def describe(self) -> str:
        return (
            f"GroupBy {self.side.value}.{self.attribute}, "
            f"aggregated by {self.dimension}"
        )

    def __repr__(self) -> str:
        return f"RatingMapSpec({self.describe()})"


@dataclass(frozen=True)
class Subgroup:
    """One (subgroup, rating distribution) pair of a rating map."""

    label: Any
    distribution: RatingDistribution

    @property
    def size(self) -> int:
        return self.distribution.total

    @property
    def average_score(self) -> float:
        """The paper's aggregated score (average in this work)."""
        return self.distribution.mean()

    def score(self, aggregation=None) -> float:
        """Aggregated score under any :class:`ScoreAggregation` (mean default)."""
        from .aggregation import ScoreAggregation, aggregate_score

        if aggregation is None:
            aggregation = ScoreAggregation.MEAN
        return aggregate_score(self.distribution, aggregation)


class RatingMap:
    """A materialised rating map: spec + non-empty subgroups.

    ``covered`` is the number of records in the subgroups (records with a
    missing grouping value are excluded, per Def. 2's disjoint partition of
    g_R into labelled subgroups); ``group_size`` is |g_R|.
    """

    def __init__(
        self,
        spec: RatingMapSpec,
        criteria: SelectionCriteria,
        subgroups: Sequence[Subgroup],
        group_size: int,
    ) -> None:
        self._spec = spec
        self._criteria = criteria
        self._subgroups = tuple(sg for sg in subgroups if not sg.distribution.is_empty)
        self._group_size = int(group_size)
        self._pooled: RatingDistribution | None = None
        self._profile_cdf: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def spec(self) -> RatingMapSpec:
        return self._spec

    @property
    def criteria(self) -> SelectionCriteria:
        return self._criteria

    @property
    def dimension(self) -> str:
        return self._spec.dimension

    @property
    def subgroups(self) -> tuple[Subgroup, ...]:
        return self._subgroups

    @property
    def n_subgroups(self) -> int:
        return len(self._subgroups)

    @property
    def group_size(self) -> int:
        """|g_R| — the size of the underlying rating group."""
        return self._group_size

    @property
    def covered(self) -> int:
        """Records that fall into some subgroup."""
        return sum(sg.size for sg in self._subgroups)

    @property
    def scale(self) -> int:
        if not self._subgroups:
            return 2
        return self._subgroups[0].distribution.scale

    @property
    def is_informative(self) -> bool:
        """A map needs ≥ 2 subgroups to show any contrast."""
        return self.n_subgroups >= 2

    def pooled(self) -> RatingDistribution:
        """Distribution of the whole map (all subgroups merged; cached)."""
        if self._pooled is None:
            counts = np.zeros(self.scale, dtype=np.int64)
            for sg in self._subgroups:
                counts += sg.distribution.counts
            self._pooled = RatingDistribution(counts)
        return self._pooled

    def sorted_by_score(self, descending: bool = True) -> tuple[Subgroup, ...]:
        """Subgroups ordered by average score (Figure 3's presentation)."""
        return tuple(
            sorted(
                self._subgroups,
                key=lambda sg: sg.average_score,
                reverse=descending,
            )
        )

    def render(self) -> str:
        """Textual rendering in the shape of the paper's Figure 3 tables."""
        lines = [f"rm: {self._spec.describe()} — over {self._criteria.describe()}"]
        header = f"{self._spec.attribute:<20} {'# of records':>12}  {'rating distribution':<30} {'avg. score':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for sg in self.sorted_by_score():
            dist = "{" + ",".join(
                f"{k}:{v}" for k, v in sg.distribution.to_mapping().items()
            ) + "}"
            lines.append(
                f"{str(sg.label):<20} {sg.size:>12}  {dist:<30} {sg.average_score:>10.1f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RatingMap({self._spec.describe()}: {self.n_subgroups} subgroups, "
            f"{self.covered}/{self._group_size} records)"
        )


def enumerate_map_specs(
    database: SubjectiveDatabase,
    criteria: SelectionCriteria,
    dimensions: Sequence[str] | None = None,
) -> Iterator[RatingMapSpec]:
    """All candidate map specs for a rating group.

    Candidates are every (explorable attribute) × (rating dimension) pair,
    excluding attributes the criteria already fixes to a single value —
    grouping by those would produce a degenerate single-subgroup map.
    """
    fixed = criteria.attributes()
    dims = tuple(dimensions) if dimensions is not None else database.dimensions
    for side, attribute in database.grouping_attributes():
        if (side, attribute) in fixed:
            continue
        for dimension in dims:
            yield RatingMapSpec(side, attribute, dimension)


def rating_map_from_counts(
    spec: RatingMapSpec,
    criteria: SelectionCriteria,
    counts: np.ndarray,
    labels: Sequence[Any],
    group_size: int,
) -> RatingMap:
    """Assemble a :class:`RatingMap` from a per-subgroup histogram matrix."""
    subgroups = [
        Subgroup(label, RatingDistribution(row))
        for label, row in zip(labels, counts)
        if row.sum() > 0
    ]
    return RatingMap(spec, criteria, subgroups, group_size)


def build_rating_map(group: RatingGroup, spec: RatingMapSpec) -> RatingMap:
    """Materialise one rating map over ``group`` with a single full scan."""
    database = group.database
    codes = group.subgroup_codes(spec.side, spec.attribute)
    labels = group.subgroup_labels(spec.side, spec.attribute)
    scores = group.scores(spec.dimension)
    scale = database.scale
    with np.errstate(invalid="ignore"):
        valid = (codes >= 0) & np.isfinite(scores) & (scores >= 1) & (scores <= scale)
    flat = np.bincount(
        codes[valid] * scale + (scores[valid].astype(np.int64) - 1),
        minlength=len(labels) * scale,
    )
    counts = flat.reshape(len(labels), scale)
    return rating_map_from_counts(spec, group.criteria, counts, labels, len(group))
