"""Exploration operations and their neighbourhood (paper §3.2.1, §4.3).

An operation moves the session from the current selection criteria q' to a
new criteria q.  Following §4.3, q differs from q' in at most two
attribute-value pairs: it may **add** one new pair, and may **remove** or
**change** one existing pair (compound add+remove / add+change edits are
supported behind a flag).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any, Iterator

from ..exceptions import OperationError
from .database import Side, SubjectiveDatabase
from .groups import AVPair, RatingGroup, SelectionCriteria

__all__ = ["OperationKind", "Operation", "enumerate_operations", "apply_operation"]


class OperationKind(str, enum.Enum):
    """How an operation edits the current criteria."""

    FILTER = "filter"  # adds a pair (drill-down)
    GENERALIZE = "generalize"  # removes a pair (roll-up)
    CHANGE = "change"  # replaces the value of a pair (sideways)
    COMPOUND = "compound"  # one add combined with one remove/change

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Operation:
    """A next-step operation: the target criteria plus its edit summary."""

    target: SelectionCriteria
    kind: OperationKind
    added: tuple[AVPair, ...] = ()
    removed: tuple[AVPair, ...] = ()

    def describe(self) -> str:
        parts = []
        if self.added:
            parts.append("add " + ", ".join(repr(p) for p in self.added))
        if self.removed:
            parts.append("drop " + ", ".join(repr(p) for p in self.removed))
        edit = "; ".join(parts) if parts else "no-op"
        return f"{self.kind.value}: {edit} → {self.target.describe()}"

    @functools.cached_property
    def describe_key(self) -> str:
        """The target's description, memoised for ranking tie-breaks.

        Recommendation ranking sorts by ``(-utility, target.describe())``.
        ``cached_property`` stores
        the string in the instance ``__dict__`` directly, which works on a
        frozen dataclass (no ``__setattr__`` involved) and stays out of
        field-based equality/hashing.
        """
        return self.target.describe()

    def __repr__(self) -> str:
        return f"Operation({self.describe()})"


def apply_operation(
    database: SubjectiveDatabase, operation: Operation
) -> RatingGroup:
    """Materialise the rating group the operation leads to.

    Raises :class:`~repro.exceptions.OperationError` if the resulting group
    is empty (the UI would never offer such an operation).
    """
    group = RatingGroup(database, operation.target)
    if group.is_empty:
        raise OperationError(
            f"operation yields an empty rating group: {operation.describe()}"
        )
    return group


def _candidate_values(
    database: SubjectiveDatabase,
    side: Side,
    attribute: str,
    max_values: int | None,
) -> tuple[Any, ...]:
    domain = database.catalog(side).domain(attribute)
    values = domain.frequent_values()
    if max_values is not None:
        values = values[:max_values]
    return values


def enumerate_operations(
    database: SubjectiveDatabase,
    current: SelectionCriteria,
    max_values_per_attribute: int | None = None,
    include_compound: bool = False,
) -> Iterator[Operation]:
    """Yield the candidate next-step operations from ``current``.

    Candidates (deduplicated, never equal to ``current``):

    * FILTER — add ⟨a, v⟩ for every explorable attribute a not in q' and
      every active-domain value v (most frequent first, optionally capped
      at ``max_values_per_attribute``);
    * GENERALIZE — remove any one existing pair;
    * CHANGE — replace the value of any one existing pair;
    * COMPOUND (only if ``include_compound``) — one FILTER add combined with
      one GENERALIZE remove or CHANGE replacement.

    Emptiness of the resulting rating group is *not* checked here — the
    Recommendation Builder checks it when scoring, so enumeration stays
    cheap.
    """
    seen: set[SelectionCriteria] = {current}

    def emit(operation: Operation) -> Iterator[Operation]:
        if operation.target not in seen:
            seen.add(operation.target)
            yield operation

    current_attrs = current.attributes()
    adds: list[AVPair] = []
    for side in (Side.REVIEWER, Side.ITEM):
        for attribute in database.explorable_attributes(side):
            if (side, attribute) in current_attrs:
                continue
            for value in _candidate_values(
                database, side, attribute, max_values_per_attribute
            ):
                adds.append(AVPair(side, attribute, value))

    removals = list(current)
    changes: list[tuple[AVPair, AVPair]] = []
    for pair in removals:
        for value in _candidate_values(
            database, pair.side, pair.attribute, max_values_per_attribute
        ):
            if value != pair.value:
                changes.append((pair, AVPair(pair.side, pair.attribute, value)))

    for pair in adds:
        yield from emit(
            Operation(current.with_pair(pair), OperationKind.FILTER, added=(pair,))
        )
    for pair in removals:
        yield from emit(
            Operation(
                current.without_pair(pair), OperationKind.GENERALIZE, removed=(pair,)
            )
        )
    for old, new in changes:
        yield from emit(
            Operation(
                current.with_pair(new),
                OperationKind.CHANGE,
                added=(new,),
                removed=(old,),
            )
        )

    if not include_compound:
        return
    for add in adds:
        base = current.with_pair(add)
        for pair in removals:
            yield from emit(
                Operation(
                    base.without_pair(pair),
                    OperationKind.COMPOUND,
                    added=(add,),
                    removed=(pair,),
                )
            )
        for old, new in changes:
            yield from emit(
                Operation(
                    base.with_pair(new),
                    OperationKind.COMPOUND,
                    added=(add, new),
                    removed=(old,),
                )
            )
