"""Column storage for the in-memory columnar engine.

Three concrete column classes implement a small common protocol:

* :class:`CategoricalColumn` — dictionary-encoded: an ``int32`` code array
  plus a category list.  Missing values are code ``-1``.
* :class:`NumericColumn` — a ``float64`` array; missing values are ``NaN``.
* :class:`MultiValuedColumn` — one ``frozenset`` of strings per row, stored
  densely as a flattened code array with offsets so that membership tests
  are vectorised.

Columns are immutable once built; selections produce new columns via
:meth:`take`.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

import numpy as np

from ..exceptions import ColumnTypeError
from .types import ColumnType

__all__ = [
    "Column",
    "CategoricalColumn",
    "NumericColumn",
    "MultiValuedColumn",
    "column_from_values",
]


class Column:
    """Abstract base for all column implementations."""

    #: logical type, set by subclasses
    type: ColumnType

    def __len__(self) -> int:
        raise NotImplementedError

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column holding only ``indices`` rows (in order)."""
        raise NotImplementedError

    def value_at(self, row: int) -> Any:
        """Return the Python value stored at ``row`` (``None`` if missing)."""
        raise NotImplementedError

    def to_list(self) -> list[Any]:
        """Materialise the column as a list of Python values."""
        return [self.value_at(i) for i in range(len(self))]

    def equals_mask(self, value: Any) -> np.ndarray:
        """Boolean mask of rows whose value equals ``value``.

        For multi-valued columns this is *containment* (the row's set
        contains ``value``), matching how selection predicates on e.g.
        ``cuisine`` behave in the paper's examples.
        """
        raise NotImplementedError

    def isin_mask(self, values: Iterable[Any]) -> np.ndarray:
        """Boolean mask of rows whose value is one of ``values``."""
        masks = [self.equals_mask(v) for v in values]
        if not masks:
            return np.zeros(len(self), dtype=bool)
        out = masks[0]
        for mask in masks[1:]:
            out = out | mask
        return out

    def distinct_values(self) -> list[Any]:
        """Sorted list of distinct non-missing values.

        For multi-valued columns the distinct *members* are returned, since
        predicates select by member.
        """
        raise NotImplementedError

    def group_codes(self) -> tuple[np.ndarray, list[Any]]:
        """Dictionary-encode the column for group-by.

        Returns ``(codes, labels)`` where ``codes[i]`` is the group index of
        row ``i`` (``-1`` for missing) and ``labels[g]`` is the value of
        group ``g``.  Groups are disjoint by construction (paper Def. 2):
        a multi-valued row is keyed by its full value set.
        """
        raise NotImplementedError


class CategoricalColumn(Column):
    """Dictionary-encoded string column."""

    type = ColumnType.CATEGORICAL

    def __init__(self, codes: np.ndarray, categories: Sequence[str]) -> None:
        self._codes = np.asarray(codes, dtype=np.int32)
        self._categories = list(categories)
        if self._codes.size and self._codes.max(initial=-1) >= len(self._categories):
            raise ColumnTypeError("category code out of range")
        self._index = {c: i for i, c in enumerate(self._categories)}

    @classmethod
    def from_values(cls, values: Sequence[Any]) -> "CategoricalColumn":
        """Build from raw values; ``None`` becomes a missing code."""
        categories: list[str] = []
        index: dict[str, int] = {}
        codes = np.empty(len(values), dtype=np.int32)
        for i, value in enumerate(values):
            if value is None:
                codes[i] = -1
                continue
            key = str(value)
            code = index.get(key)
            if code is None:
                code = len(categories)
                index[key] = code
                categories.append(key)
            codes[i] = code
        return cls(codes, categories)

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    @property
    def categories(self) -> list[str]:
        return list(self._categories)

    def __len__(self) -> int:
        return int(self._codes.size)

    def take(self, indices: np.ndarray) -> "CategoricalColumn":
        return CategoricalColumn(self._codes[indices], self._categories)

    def value_at(self, row: int) -> Any:
        code = int(self._codes[row])
        return None if code < 0 else self._categories[code]

    def equals_mask(self, value: Any) -> np.ndarray:
        code = self._index.get(str(value), -2)
        return self._codes == code

    def isin_mask(self, values: Iterable[Any]) -> np.ndarray:
        """Vectorised membership: one ``np.isin`` over codes, not k mask ORs."""
        wanted = {
            code
            for code in (self._index.get(str(v)) for v in values)
            if code is not None
        }
        if not wanted:
            return np.zeros(len(self), dtype=bool)
        return np.isin(self._codes, np.fromiter(wanted, dtype=np.int32))

    def distinct_values(self) -> list[str]:
        present = np.unique(self._codes[self._codes >= 0])
        return sorted(self._categories[int(c)] for c in present)

    def group_codes(self) -> tuple[np.ndarray, list[str]]:
        present, dense = np.unique(self._codes, return_inverse=True)
        if present.size and present[0] == -1:
            # shift: missing stays -1, others become 0..G-1
            labels = [self._categories[int(c)] for c in present[1:]]
            return dense.astype(np.int64) - 1, labels
        labels = [self._categories[int(c)] for c in present]
        return dense.astype(np.int64), labels


class NumericColumn(Column):
    """Float column; missing values are NaN."""

    type = ColumnType.NUMERIC

    def __init__(self, data: np.ndarray) -> None:
        self._data = np.asarray(data, dtype=np.float64)

    @classmethod
    def from_values(cls, values: Sequence[Any]) -> "NumericColumn":
        data = np.array(
            [math.nan if v is None else float(v) for v in values], dtype=np.float64
        )
        return cls(data)

    @property
    def data(self) -> np.ndarray:
        return self._data

    def __len__(self) -> int:
        return int(self._data.size)

    def take(self, indices: np.ndarray) -> "NumericColumn":
        return NumericColumn(self._data[indices])

    def value_at(self, row: int) -> Any:
        value = float(self._data[row])
        if math.isnan(value):
            return None
        return int(value) if value.is_integer() else value

    def equals_mask(self, value: Any) -> np.ndarray:
        try:
            needle = float(value)
        except (TypeError, ValueError):
            return np.zeros(len(self), dtype=bool)
        return self._data == needle

    def compare_mask(self, op: str, value: float) -> np.ndarray:
        """Mask for a comparison ``op`` in ``{'<', '<=', '>', '>=', '!='}``."""
        value = float(value)
        if op == "<":
            return self._data < value
        if op == "<=":
            return self._data <= value
        if op == ">":
            return self._data > value
        if op == ">=":
            return self._data >= value
        if op == "!=":
            with np.errstate(invalid="ignore"):
                return ~np.isnan(self._data) & (self._data != value)
        raise ColumnTypeError(f"unsupported comparison operator {op!r}")

    def distinct_values(self) -> list[float]:
        finite = self._data[~np.isnan(self._data)]
        out: list[float] = []
        for value in np.unique(finite):
            value = float(value)
            out.append(int(value) if value.is_integer() else value)
        return out

    def group_codes(self) -> tuple[np.ndarray, list[Any]]:
        missing = np.isnan(self._data)
        filler = self._data.copy()
        filler[missing] = np.inf  # sorts last; removed below
        present, dense = np.unique(filler, return_inverse=True)
        codes = dense.astype(np.int64)
        if missing.any():
            codes[missing] = -1
            present = present[:-1] if np.isinf(present[-1]) else present
        labels: list[Any] = []
        for value in present:
            value = float(value)
            labels.append(int(value) if value.is_integer() else value)
        return codes, labels


class MultiValuedColumn(Column):
    """Column whose cells are frozensets of strings.

    Stored as a flattened member-code array plus per-row offsets so that
    membership predicates run vectorised over the flat array.
    """

    type = ColumnType.MULTI_VALUED

    def __init__(self, rows: Sequence[frozenset[str]]) -> None:
        self._rows = [frozenset(str(v) for v in row) for row in rows]
        members: list[str] = []
        index: dict[str, int] = {}
        flat: list[int] = []
        offsets = np.zeros(len(self._rows) + 1, dtype=np.int64)
        for i, row in enumerate(self._rows):
            for value in sorted(row):
                code = index.get(value)
                if code is None:
                    code = len(members)
                    index[value] = code
                    members.append(value)
                flat.append(code)
            offsets[i + 1] = len(flat)
        self._members = members
        self._index = index
        self._flat = np.asarray(flat, dtype=np.int64)
        self._offsets = offsets
        self._row_of_flat = np.repeat(
            np.arange(len(self._rows), dtype=np.int64), np.diff(offsets)
        )

    @classmethod
    def from_values(cls, values: Sequence[Any]) -> "MultiValuedColumn":
        rows = []
        for value in values:
            if value is None:
                rows.append(frozenset())
            elif isinstance(value, (set, frozenset, list, tuple)):
                rows.append(frozenset(str(v) for v in value))
            else:
                rows.append(frozenset({str(value)}))
        return cls(rows)

    def __len__(self) -> int:
        return len(self._rows)

    def take(self, indices: np.ndarray) -> "MultiValuedColumn":
        return MultiValuedColumn([self._rows[int(i)] for i in indices])

    def value_at(self, row: int) -> Any:
        value = self._rows[row]
        return value if value else None

    @property
    def members(self) -> tuple[str, ...]:
        """The distinct member values, indexed by member code."""
        return tuple(self._members)

    def member_code(self, value: Any) -> int | None:
        """The member code of ``value`` (``None`` if no row contains it)."""
        return self._index.get(str(value))

    def membership(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat, offsets)``: row ``i`` holds ``flat[offsets[i]:offsets[i+1]]``.

        Member codes per row are distinct (cells are sets), so a FILTER on
        value ``v`` selects exactly the rows listing code ``v`` once.
        """
        return self._flat, self._offsets

    def equals_mask(self, value: Any) -> np.ndarray:
        """Containment mask: rows whose set contains ``value``."""
        code = self.member_code(value)
        mask = np.zeros(len(self), dtype=bool)
        if code is None:
            return mask
        hit_rows = self._row_of_flat[self._flat == code]
        mask[hit_rows] = True
        return mask

    def distinct_values(self) -> list[str]:
        return sorted(self._members)

    def group_codes(self) -> tuple[np.ndarray, list[str]]:
        """Group rows by their *full* value set (disjoint partition).

        The label of a group is the sorted members joined by ``" | "`` —
        e.g. ``"Burgers | Barbeque"`` sorts to ``"Barbeque | Burgers"``.
        Empty sets map to the missing code ``-1``.
        """
        labels: list[str] = []
        index: dict[frozenset[str], int] = {}
        codes = np.empty(len(self), dtype=np.int64)
        for i, row in enumerate(self._rows):
            if not row:
                codes[i] = -1
                continue
            code = index.get(row)
            if code is None:
                code = len(labels)
                index[row] = code
                labels.append(" | ".join(sorted(row)))
            codes[i] = code
        return codes, labels


def column_from_values(values: Sequence[Any], ctype: ColumnType | None = None) -> Column:
    """Build the appropriate column for ``values``.

    ``ctype`` forces a type; otherwise it is inferred with
    :func:`repro.db.types.infer_column_type`.
    """
    from .types import infer_column_type

    if ctype is None:
        ctype = infer_column_type(list(values))
    if ctype is ColumnType.CATEGORICAL:
        return CategoricalColumn.from_values(values)
    if ctype is ColumnType.NUMERIC:
        return NumericColumn.from_values(values)
    if ctype is ColumnType.MULTI_VALUED:
        return MultiValuedColumn.from_values(values)
    raise ColumnTypeError(f"unknown column type {ctype!r}")
