"""Group descriptions and rating groups (paper §3.1).

A *selection criteria* is a set of attribute-value pairs over the reviewer
and item tables; it induces a reviewer group g_U, an item group g_I and the
rating group g_R of all records linking them.  :class:`RatingGroup`
materialises g_R lazily as an index array into the database's rating table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from ..db.predicates import Predicate, TruePredicate, conjunction
from ..exceptions import OperationError
from .database import Side, SubjectiveDatabase

__all__ = ["AVPair", "SelectionCriteria", "RatingGroup"]


@dataclass(frozen=True, order=True)
class AVPair:
    """One ⟨attribute, value⟩ pair scoped to a table side."""

    side: Side
    attribute: str
    value: Any

    def __repr__(self) -> str:
        return f"⟨{self.side.value}.{self.attribute}, {self.value}⟩"


class SelectionCriteria:
    """An immutable set of :class:`AVPair` with ≤ 1 pair per attribute.

    This is the paper's operation/selection representation: the union of the
    descriptions of g_U and g_I.  Criteria are hashable value objects.
    """

    def __init__(self, pairs: Iterable[AVPair] = ()) -> None:
        seen: dict[tuple[Side, str], AVPair] = {}
        for pair in pairs:
            key = (pair.side, pair.attribute)
            if key in seen and seen[key] != pair:
                raise OperationError(
                    f"conflicting values for {pair.side.value}.{pair.attribute}: "
                    f"{seen[key].value!r} vs {pair.value!r}"
                )
            seen[key] = pair
        self._pairs = frozenset(seen.values())

    # -- constructors -------------------------------------------------------
    @classmethod
    def root(cls) -> "SelectionCriteria":
        """The empty criteria (whole database)."""
        return cls()

    @classmethod
    def of(
        cls,
        reviewer: dict[str, Any] | None = None,
        item: dict[str, Any] | None = None,
    ) -> "SelectionCriteria":
        """Convenience constructor from per-side dicts."""
        pairs = [
            AVPair(Side.REVIEWER, attr, value)
            for attr, value in (reviewer or {}).items()
        ]
        pairs += [
            AVPair(Side.ITEM, attr, value) for attr, value in (item or {}).items()
        ]
        return cls(pairs)

    # -- accessors ------------------------------------------------------------
    @property
    def pairs(self) -> frozenset[AVPair]:
        return self._pairs

    def side_pairs(self, side: Side) -> dict[str, Any]:
        """``{attribute: value}`` of one side, in attribute order.

        Sorted like :meth:`__iter__`: the frozenset's own order follows
        the process's hash seed, and callers serialise this dict as is.
        """
        return {
            p.attribute: p.value
            for p in sorted(self._pairs)
            if p.side is side
        }

    def attributes(self, side: Side | None = None) -> frozenset[tuple[Side, str]]:
        return frozenset(
            (p.side, p.attribute)
            for p in self._pairs
            if side is None or p.side is side
        )

    def predicate(self, side: Side) -> Predicate:
        """The conjunctive predicate this criteria imposes on ``side``."""
        pairs = self.side_pairs(side)
        if not pairs:
            return TruePredicate()
        return conjunction(sorted(pairs.items()))

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[AVPair]:
        return iter(sorted(self._pairs))

    def __contains__(self, pair: AVPair) -> bool:
        return pair in self._pairs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SelectionCriteria) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    # -- edits ---------------------------------------------------------------
    def with_pair(self, pair: AVPair) -> "SelectionCriteria":
        """Add (or replace the value of) one pair."""
        kept = [
            p
            for p in self._pairs
            if (p.side, p.attribute) != (pair.side, pair.attribute)
        ]
        return SelectionCriteria(kept + [pair])

    def without_pair(self, pair: AVPair) -> "SelectionCriteria":
        """Remove one pair (no-op if absent)."""
        return SelectionCriteria(p for p in self._pairs if p != pair)

    def edit_distance(self, other: "SelectionCriteria") -> int:
        """Number of pairs by which the two criteria differ (symmetric)."""
        mine, theirs = self._pairs, other._pairs
        added = theirs - mine
        removed = mine - theirs
        # a changed attribute counts once, not as one add + one remove
        changed = {
            (p.side, p.attribute) for p in added
        } & {(p.side, p.attribute) for p in removed}
        return len(added) + len(removed) - len(changed)

    def describe(self) -> str:
        if not self._pairs:
            return "⟨entire database⟩"
        return " ∧ ".join(
            f"{p.side.value}.{p.attribute}={p.value}" for p in sorted(self._pairs)
        )

    def __repr__(self) -> str:
        return f"SelectionCriteria({self.describe()})"


class RatingGroup:
    """A materialised rating group g_R.

    Holds the originating database, the selection criteria, and the index
    array of matching rating records.  Materialisation is performed once at
    construction; everything downstream (rating maps, phases) indexes into
    ``rows``.
    """

    def __init__(self, database: SubjectiveDatabase, criteria: SelectionCriteria) -> None:
        self._database = database
        self._criteria = criteria
        reviewer_mask = database.reviewers.mask(criteria.predicate(Side.REVIEWER))
        item_mask = database.items.mask(criteria.predicate(Side.ITEM))
        record_mask = database.rating_rows_for_entities(
            Side.REVIEWER, reviewer_mask
        ) & database.rating_rows_for_entities(Side.ITEM, item_mask)
        self._rows = np.flatnonzero(record_mask)
        self._n_reviewers = int(reviewer_mask.sum())
        self._n_items = int(item_mask.sum())

    @classmethod
    def from_rows(
        cls,
        database: SubjectiveDatabase,
        criteria: SelectionCriteria,
        rows: np.ndarray,
        n_reviewers: int,
        n_items: int,
    ) -> "RatingGroup":
        """Wrap pre-materialised rows without re-scanning the tables.

        ``rows`` must be exactly the sorted record indices the criteria
        selects (as an index layer computes them); callers are trusted on
        this — the class behaves identically to a scanned group afterwards.
        """
        group = cls.__new__(cls)
        group._database = database
        group._criteria = criteria
        group._rows = np.asarray(rows, dtype=np.int64)
        group._n_reviewers = int(n_reviewers)
        group._n_items = int(n_items)
        return group

    @property
    def database(self) -> SubjectiveDatabase:
        return self._database

    @property
    def criteria(self) -> SelectionCriteria:
        return self._criteria

    @property
    def rows(self) -> np.ndarray:
        """Indices of this group's records in the database rating table."""
        return self._rows

    def __len__(self) -> int:
        return int(self._rows.size)

    @property
    def is_empty(self) -> bool:
        return self._rows.size == 0

    @property
    def n_reviewers(self) -> int:
        """Size of the reviewer group g_U."""
        return self._n_reviewers

    @property
    def n_items(self) -> int:
        """Size of the item group g_I."""
        return self._n_items

    def scores(self, dimension: str) -> np.ndarray:
        """Scores of ``dimension`` for this group's records."""
        return self._database.dimension_scores(dimension)[self._rows]

    def subgroup_codes(self, side: Side, attribute: str) -> np.ndarray:
        """Subgroup codes of this group's records under a grouping attribute."""
        return self._database.aligned_grouping(side, attribute).codes[self._rows]

    def subgroup_labels(self, side: Side, attribute: str) -> tuple[Any, ...]:
        return self._database.aligned_grouping(side, attribute).labels

    def __repr__(self) -> str:
        return (
            f"RatingGroup({self._criteria.describe()}: {len(self)} records, "
            f"{self._n_reviewers} reviewers × {self._n_items} items)"
        )
