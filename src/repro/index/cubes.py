"""Fused candidate cubes: every FILTER value's histograms in one pass.

The paper's §4.2.1 sharing computes all *aggregates* of one grouping in a
single scan.  FILTER candidates admit two further sharing axes:

* **across candidate operations** — all FILTER values of one attribute
  partition the parent's rows by that attribute, so one 3-way ``bincount``
  keyed by (filter value, subgroup, score bucket) yields the candidate
  rating-map histograms of *every* value at once;
* **across attribute roles** — the joint histogram of (attribute a,
  attribute b, bucket) is symmetric in a↔b, so the pass that builds
  attribute a's cube slice grouped by b also provides, transposed,
  attribute b's cube slice grouped by a.

:class:`StepSlices` owns the per-recommendation-step state: the parent
rows' attribute codes and score buckets (sliced once, shared by every
cube) and the joint pair histograms (built once per unordered attribute
pair per dimension, under single-flight locks).  Missing codes and
out-of-scale scores are routed to trash cells (row/column/bucket 0 or
``scale``) instead of being masked out, so each pass is a single
streaming ``bincount`` with no boolean fancy-indexing; the trash cells
are sliced away afterwards, leaving exactly the counts a masked scan
produces.

A :class:`FilterAxis` exists only for categorical and numeric attributes:
multi-valued FILTER semantics are *containment*, while the aligned
grouping keys rows by their full value set, so a cube slice would not
equal the candidate's rows.  Those candidates overlap, and a
:class:`ContainmentFamily` serves them instead: one stacked pass over
every (row, member value) incidence of the parent.

A cube need not run over the parent's own rows: over a *sibling* group's
slices (the parent with its pair on the axis removed) the same cube
serves every CHANGE of that pair — see
:meth:`~repro.index.facade.NeighborhoodContext.sibling_cube`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..concurrency import KeyedSingleFlight
from ..core.rating_maps import RatingMapSpec
from ..db.column import MultiValuedColumn
from ..db.groupby import build_grouping, score_buckets, shifted_codes
from ..db.types import ColumnType
from ..model.database import Side, SubjectiveDatabase

__all__ = [
    "FilterAxis",
    "CandidateCube",
    "ContainmentFamily",
    "StepSlices",
    "axis_for",
    "cube_cells",
]

_AttrKey = tuple[Side, str]


@dataclass(frozen=True)
class FilterAxis:
    """Dictionary encoding of one FILTER-able attribute over rating rows."""

    side: Side
    attribute: str
    #: per-rating-record value code (-1 = missing), from the aligned grouping
    codes: np.ndarray
    labels: tuple[Any, ...]
    kind: ColumnType
    _index: dict[Any, int] = field(repr=False)

    @property
    def n_values(self) -> int:
        return len(self.labels)

    def code_of(self, value: Any) -> int | None:
        """The value's code, or ``None`` if outside the active domain."""
        if self.kind is ColumnType.CATEGORICAL:
            return self._index.get(str(value))
        try:
            return self._index.get(float(value))
        except (TypeError, ValueError):
            return None


def axis_for(
    database: SubjectiveDatabase, side: Side, attribute: str
) -> FilterAxis | None:
    """Build the filter axis of an attribute (``None`` if not cube-able)."""
    kind = database.entity_table(side).column(attribute).type
    if kind is ColumnType.MULTI_VALUED:
        return None
    grouping = database.aligned_grouping(side, attribute)
    if kind is ColumnType.CATEGORICAL:
        index: dict[Any, int] = {
            str(label): code for code, label in enumerate(grouping.labels)
        }
    else:
        index = {float(label): code for code, label in enumerate(grouping.labels)}
    return FilterAxis(side, attribute, grouping.codes, grouping.labels, kind, index)


def cube_cells(
    database: SubjectiveDatabase,
    n_values: int,
    specs: Sequence[RatingMapSpec],
) -> int:
    """Histogram cells a family of ``n_values`` candidates would hold.

    The budget admission check of every fused family: a FILTER cube, a
    sibling cube or a containment family.
    """
    total = 0
    for spec in specs:
        n_groups = database.aligned_grouping(spec.side, spec.attribute).n_groups
        total += n_values * n_groups * database.scale
    return total


class StepSlices:
    """Shared per-step scan state over one parent row set.

    Attribute codes are stored shifted by one (missing ``-1`` → trash
    code ``0``) and score buckets extended by one (invalid → trash bucket
    ``scale``); the joint bincounts then run over every parent row with
    no masking, and real counts live in cells ``[1:, 1:, :scale]``.  Both
    are stored in the narrowest unsigned type that holds them (a step
    keeps one array per attribute and dimension alive), so every key
    product widens to ``int64`` explicitly.
    """

    def __init__(
        self,
        database: SubjectiveDatabase,
        parent_rows: np.ndarray,
        on_pair_build: Callable[[int], None] | None = None,
    ) -> None:
        self._db = database
        self._rows = parent_rows
        self._scale = database.scale
        self._on_pair_build = on_pair_build
        self._lock = threading.Lock()
        self._flight = KeyedSingleFlight()
        #: attr key → (codes+1 sliced, n_groups, labels)
        self._codes1: dict[_AttrKey, tuple[np.ndarray, int, tuple]] = {}
        #: (side, attribute, dim) → the parent's (n_groups, scale) histogram
        self._group: dict[tuple[Side, str, str], np.ndarray] = {}
        #: dim → extended buckets sliced (0..scale-1 real, scale = trash)
        self._buckets: dict[str, np.ndarray] = {}
        #: (attr key a, attr key b, dim) → (n_a+1, n_b+1, scale+1) joint
        self._pairs: dict[tuple[_AttrKey, _AttrKey, str], np.ndarray] = {}
        #: entity-aggregation state (see :meth:`_entity_side`): per-side
        #: entity counts/rows, per-attr entity codes, per-(side, dim)
        #: entity histograms and per-(big attr, small side, dim) cross
        #: intermediates
        self._n_ent: dict[Side, int] = {}
        self._ent_rows: dict[Side, np.ndarray] = {}
        self._ent_codes1: dict[_AttrKey, tuple[np.ndarray, int]] = {}
        self._ent_hist: dict[tuple[Side, str], np.ndarray] = {}
        self._cross_m: dict[tuple[_AttrKey, Side, str], np.ndarray] = {}
        self.nbytes = 0
        self.pair_builds = 0

    @property
    def rows(self) -> np.ndarray:
        """The scanned group's rating rows."""
        return self._rows

    # -- shared slices ------------------------------------------------------
    def codes1(self, side: Side, attribute: str) -> tuple[np.ndarray, int, tuple]:
        key = (side, attribute)
        with self._lock:
            cached = self._codes1.get(key)
        if cached is not None:
            return cached
        grouping = self._db.aligned_grouping(side, attribute)
        built = (
            shifted_codes(grouping.codes[self._rows], grouping.n_groups),
            grouping.n_groups,
            grouping.labels,
        )
        with self._lock:
            return self._codes1.setdefault(key, built)

    def buckets(self, dimension: str) -> np.ndarray:
        with self._lock:
            cached = self._buckets.get(dimension)
        if cached is not None:
            return cached
        built = score_buckets(
            self._db.dimension_scores(dimension)[self._rows], self._scale
        )
        with self._lock:
            return self._buckets.setdefault(dimension, built)

    def labels(self, side: Side, attribute: str) -> tuple:
        return self.codes1(side, attribute)[2]

    # -- entity aggregation --------------------------------------------------
    # A rating row's attribute codes are functions of its reviewer/item
    # entity, so a pair histogram can be accumulated per *entity* instead
    # of per row: counts are integers, and a float64 bincount of integer
    # weights is exact below 2^53, so the aggregated build is bit-identical
    # to the row-level one.  This pays off when a side has far fewer
    # entities than the parent has rows (e.g. tens of restaurants under
    # hundreds of thousands of reviews).

    def _entities(self, side: Side) -> int:
        """Entity rows of one side (alignment-indexed upper bound)."""
        n = self._n_ent.get(side)
        if n is None:
            n = int(self._db.entity_rows_for_ratings(side).max()) + 1
            self._n_ent[side] = n  # idempotent — benign if raced
        return n

    def _entity_cheap(self, side: Side) -> bool:
        """Whether entity aggregation beats a row-level pass for a side."""
        return self._entities(side) * (self._scale + 1) <= len(self._rows)

    def entity_rows(self, side: Side) -> np.ndarray:
        """Per-parent-row entity index of one side (cached gather)."""
        with self._lock:
            cached = self._ent_rows.get(side)
        if cached is not None:
            return cached
        built = self._db.entity_rows_for_ratings(side)[self._rows]
        with self._lock:
            return self._ent_rows.setdefault(side, built)

    def entity_codes1(self, side: Side, attribute: str) -> tuple[np.ndarray, int]:
        """Entity-level attribute codes, shifted by one (missing → 0).

        The same dictionary encoding ``aligned_grouping`` gathers through
        the alignment, so code ``c`` here names the same label there.
        """
        attr_key = (side, attribute)
        with self._lock:
            cached = self._ent_codes1.get(attr_key)
        if cached is not None:
            return cached
        grouping = build_grouping(self._db.entity_table(side), attribute)
        built = (
            grouping.codes[: self._entities(side)] + 1,
            grouping.n_groups,
        )
        with self._lock:
            return self._ent_codes1.setdefault(attr_key, built)

    def entity_hist(self, side: Side, dimension: str) -> np.ndarray:
        """``(n_entities, scale+1)`` score histogram per entity.

        One row-level pass per (side, dimension) — after it, every
        same-side pair histogram of that side is an entity-sized bincount.
        """
        key = (side, dimension)
        with self._lock:
            hist = self._ent_hist.get(key)
        if hist is not None:
            return hist
        with self._flight.lock(("ehist", side)):
            with self._lock:
                hist = self._ent_hist.get(key)
            if hist is not None:
                return hist
            scale = self._scale
            n_ent = self._entities(side)
            eb = self.entity_rows(side) * (scale + 1)
            for dim in self._db.dimensions:
                dim_key = (side, dim)
                with self._lock:
                    if dim_key in self._ent_hist:
                        continue
                flat = np.bincount(
                    eb + self.buckets(dim), minlength=n_ent * (scale + 1)
                )
                with self._lock:
                    self._ent_hist[dim_key] = flat.reshape(n_ent, scale + 1)
            with self._lock:
                return self._ent_hist[key]

    def cross_hist(
        self, big: _AttrKey, small_side: Side, dimension: str
    ) -> np.ndarray:
        """``(n_big+1, n_entities, scale+1)`` cross-side intermediate.

        Groups one row-level pass by (big-side attribute code, small-side
        entity, bucket); every cross pair of ``big`` with a small-side
        attribute then aggregates entities by their attribute code without
        touching the rows again.
        """
        key = (big, small_side, dimension)
        with self._lock:
            hist = self._cross_m.get(key)
        if hist is not None:
            return hist
        with self._flight.lock(("cross", big, small_side)):
            with self._lock:
                hist = self._cross_m.get(key)
            if hist is not None:
                return hist
            scale = self._scale
            n_ent = self._entities(small_side)
            f1, nf, __ = self.codes1(*big)
            fe = np.multiply(f1, n_ent, dtype=np.int64)
            fe += self.entity_rows(small_side)
            fe *= scale + 1
            cells = (nf + 1) * n_ent * (scale + 1)
            for dim in self._db.dimensions:
                dim_key = (big, small_side, dim)
                with self._lock:
                    if dim_key in self._cross_m:
                        continue
                flat = np.bincount(fe + self.buckets(dim), minlength=cells)
                with self._lock:
                    self._cross_m[dim_key] = flat.reshape(
                        nf + 1, n_ent, scale + 1
                    )
            with self._lock:
                return self._cross_m[key]

    def _pair_builder(self, first: _AttrKey, second: _AttrKey):
        """The cheapest exact per-dimension builder for one attribute pair."""
        scale = self._scale
        side_a, side_b = first[0], second[0]
        if side_a == side_b and self._entity_cheap(side_a):
            # same side: both codes are functions of the entity
            f1e, nf = self.entity_codes1(*first)
            g1e, ng = self.entity_codes1(*second)
            keys = self._entity_keys(f1e * (ng + 1) + g1e)

            def build_same(dim: str) -> np.ndarray:
                flat = self._entity_bincount(
                    keys, side_a, dim, (nf + 1) * (ng + 1)
                )
                return flat.reshape(nf + 1, ng + 1, scale + 1)

            return build_same
        if side_a is not side_b:
            small_side = (
                side_a
                if self._entities(side_a) <= self._entities(side_b)
                else side_b
            )
            if self._entity_cheap(small_side):
                big, small = (
                    (second, first) if small_side is side_a else (first, second)
                )
                s1e, ns = self.entity_codes1(*small)
                nf = self.codes1(*big)[1]
                keys = (
                    np.arange(nf + 1)[:, None, None]
                    * ((ns + 1) * (scale + 1))
                    + (s1e * (scale + 1))[None, :, None]
                    + np.arange(scale + 1)[None, None, :]
                ).ravel()
                cells = (nf + 1) * (ns + 1) * (scale + 1)

                def build_cross(dim: str) -> np.ndarray:
                    weights = self.cross_hist(big, small_side, dim).ravel()
                    flat = np.bincount(keys, weights=weights, minlength=cells)
                    built = flat.astype(np.int64).reshape(
                        nf + 1, ns + 1, scale + 1
                    )
                    # built is (big, small); reorient to (first, second)
                    return built if big == first else built.transpose(1, 0, 2)

                return build_cross
        # row-level fallback: one streaming bincount over the parent rows.
        # (f1 * (ng+1) + g1) * (scale+1), without temporaries — the
        # per-dimension key is then one add away
        f1, nf, __ = self.codes1(*first)
        g1, ng, __ = self.codes1(*second)
        fg = np.multiply(f1, ng + 1, dtype=np.int64)
        fg += g1
        fg *= scale + 1
        cells = (nf + 1) * (ng + 1) * (scale + 1)

        def build_rows(dim: str) -> np.ndarray:
            flat = np.bincount(fg + self.buckets(dim), minlength=cells)
            return flat.reshape(nf + 1, ng + 1, scale + 1)

        return build_rows

    def sizes(self, side: Side, attribute: str) -> np.ndarray:
        """Per-value parent-row counts of one attribute (FILTER group sizes)."""
        codes1, n_values, __ = self.codes1(side, attribute)
        return np.bincount(codes1, minlength=n_values + 1)[1:]

    # -- histograms ---------------------------------------------------------
    def group_hist(self, spec: RatingMapSpec) -> np.ndarray:
        """The parent's own ``(n_groups, scale)`` histogram for one spec.

        Built for every rating dimension of the spec's attribute at once,
        like :meth:`pair_hist`.  Where the spec's side has few entities,
        the histograms aggregate :meth:`entity_hist` — one row pass per
        (side, dimension) then serves every attribute of the side.
        Otherwise each is one ``bincount`` over the parent rows, and the
        attribute's ``int64`` key is built once for all of them.
        """
        key = (spec.side, spec.attribute, spec.dimension)
        with self._lock:
            hist = self._group.get(key)
        if hist is not None:
            return hist
        side, attribute, scale = spec.side, spec.attribute, self._scale
        with self._flight.lock(("group", side, attribute)):
            with self._lock:
                hist = self._group.get(key)
            if hist is not None:
                return hist
            if self._entity_cheap(side):
                codes1e, n_groups = self.entity_codes1(side, attribute)
                keys = self._entity_keys(codes1e)

                def build(dim: str) -> np.ndarray:
                    return self._entity_bincount(keys, side, dim, n_groups + 1)

            else:
                codes1, n_groups, __ = self.codes1(side, attribute)
                keys = np.multiply(codes1, scale + 1, dtype=np.int64)

                def build(dim: str) -> np.ndarray:
                    return np.bincount(
                        keys + self.buckets(dim),
                        minlength=(n_groups + 1) * (scale + 1),
                    )

            built = {
                (side, attribute, dim): build(dim).reshape(
                    n_groups + 1, scale + 1
                )[1:, :scale]
                for dim in self._db.dimensions
            }
            with self._lock:
                self._group.update(built)
                return self._group[key]

    def _entity_keys(self, codes1e: np.ndarray) -> np.ndarray:
        """Flat (entity code, bucket) keys over an entity histogram's cells."""
        width = self._scale + 1
        return (codes1e[:, None] * width + np.arange(width)).ravel()

    def _entity_bincount(
        self, keys: np.ndarray, side: Side, dimension: str, n_codes: int
    ) -> np.ndarray:
        """Sum :meth:`entity_hist` cells into ``n_codes * (scale+1)`` bins.

        A float64 bincount of integer weights is exact below 2^53, so the
        ``int64`` result equals a row-level bincount bit for bit.
        """
        weights = self.entity_hist(side, dimension).ravel()
        flat = np.bincount(
            keys, weights=weights, minlength=n_codes * (self._scale + 1)
        )
        return flat.astype(np.int64)

    def pair_hist(self, a: _AttrKey, b: _AttrKey, dimension: str) -> np.ndarray:
        """Joint ``(n_a+1, n_b+1, scale+1)`` histogram, oriented a-first.

        Built once per unordered (a, b) pair per dimension; the reversed
        orientation is the transpose of the same array (a view).  A build
        covers *every* rating dimension of the pair at once: the shared
        key (the fused pair code, or the entity-aggregated intermediate —
        see :meth:`_pair_builder`) is the expensive part, and
        recommendation scoring always ends up asking for all dimensions of
        a pair anyway, so it is computed once and only the per-dimension
        accumulation runs per dimension.
        """
        first, second = (a, b) if _attr_order(a) <= _attr_order(b) else (b, a)
        key = (first, second, dimension)
        with self._lock:
            hist = self._pairs.get(key)
        if hist is None:
            with self._flight.lock((first, second)):
                with self._lock:
                    hist = self._pairs.get(key)
                if hist is None:
                    build = self._pair_builder(first, second)
                    built_bytes = 0
                    for dim in self._db.dimensions:
                        dim_key = (first, second, dim)
                        with self._lock:
                            if dim_key in self._pairs:
                                continue
                        built = build(dim)
                        with self._lock:
                            self._pairs[dim_key] = built
                            self.nbytes += built.nbytes
                        built_bytes += built.nbytes
                    with self._lock:
                        hist = self._pairs[key]
                        if built_bytes:
                            self.pair_builds += 1
                    if self._on_pair_build is not None and built_bytes:
                        self._on_pair_build(built_bytes)
        if (a, b) == (first, second):
            return hist
        return hist.transpose(1, 0, 2)

    def cube_slice(self, axis_key: _AttrKey, spec: RatingMapSpec) -> np.ndarray:
        """``(n_values, n_groups, scale)`` candidate histograms of one spec."""
        joint = self.pair_hist(axis_key, (spec.side, spec.attribute), spec.dimension)
        return joint[1:, 1:, : self._scale]


def _attr_order(key: _AttrKey) -> tuple[str, str]:
    return (key[0].value, key[1])


class _FamilySource:
    """What every fused family shows the scorers: sizes, labels, zeros."""

    _slices: StepSlices
    #: per-member-code candidate sizes (rows)
    sizes: np.ndarray

    def candidate_size(self, code: int | None) -> int:
        return 0 if code is None else int(self.sizes[code])

    def zero_counts(self, spec: RatingMapSpec) -> np.ndarray:
        """The all-zero matrix of an out-of-domain value."""
        n_groups = self._slices.codes1(spec.side, spec.attribute)[1]
        return np.zeros((n_groups, self._slices._scale), dtype=np.int64)

    def labels_of(self, spec: RatingMapSpec) -> tuple:
        return self._slices.labels(spec.side, spec.attribute)


class CandidateCube(_FamilySource):
    """All FILTER candidates of one axis, as sufficient statistics.

    ``counts_of`` slices, per spec, the ``(n_groups, scale)`` histogram
    matrix of the candidate filtering the axis to one value code — exactly
    what a full scan of that candidate's rows would produce, since both
    are integer bincounts over the same record set.

    Over the parent's own slices (``route == "cube"``) every candidate is
    a FILTER child of the parent.  Over a *sibling* group's slices — the
    parent with its pair on the axis removed — the candidates are the
    parent's CHANGE siblings, and ``parent_code`` names the axis code of
    the parent's own value (``None`` when it lies outside the domain).
    """

    def __init__(
        self,
        slices: StepSlices,
        axis: FilterAxis,
        specs: tuple[RatingMapSpec, ...],
        *,
        sibling: bool = False,
        parent_code: int | None = None,
    ) -> None:
        self._slices = slices
        self.axis = axis
        self.side = axis.side
        self.attribute = axis.attribute
        self.specs = specs
        self.route = "sibling" if sibling else "cube"
        self.parent_code = parent_code
        self._key = (axis.side, axis.attribute)
        self.sizes = slices.sizes(axis.side, axis.attribute)

    def code_of(self, value: Any) -> int | None:
        return self.axis.code_of(value)

    @property
    def group_size(self) -> int:
        """Rows of the scanned group (every axis value, missing included)."""
        return int(self._slices.rows.size)

    def redundant(self, code: int | None, parent_size: int) -> bool:
        """Whether the candidate selects exactly the parent's rows.

        A FILTER child is a subset of the parent, so equal size settles
        it.  A CHANGE sibling shares no row with the parent unless it *is*
        the parent's value, so equal size only counts when both are empty.
        """
        size = self.candidate_size(code)
        if size != parent_size:
            return False
        return self.route == "cube" or size == 0 or code == self.parent_code

    def candidate_counts(self, code: int, spec: RatingMapSpec) -> np.ndarray:
        return self._slices.cube_slice(self._key, spec)[code]

    def stacked_counts(self, codes: np.ndarray, spec: RatingMapSpec) -> np.ndarray:
        """The ``(len(codes), n_groups, scale)`` count tensor of one spec.

        One fancy-indexed gather over the fused cube slice — the batched
        scoring path's input.  Row ``i`` equals ``candidate_counts(codes[i],
        spec)`` exactly (both read the same joint histogram).
        """
        return self._slices.cube_slice(self._key, spec)[codes]

    def group_counts(self, spec: RatingMapSpec) -> np.ndarray:
        """The scanned group's own histogram of ``spec``, from the joints.

        Summing a joint (axis, attribute, bucket) histogram over *every*
        axis code — the missing-value trash row included — leaves the
        whole group's histogram of the attribute; summing over the other
        attribute (trash column included) leaves the axis's own.  Exact
        integer sums, so this equals a direct scan of the group's rows
        without touching them.  The axis's own histogram reads the joint
        with any other attribute.
        """
        scale = self._slices._scale
        if (spec.side, spec.attribute) != self._key:
            joint = self._slices.pair_hist(
                self._key, (spec.side, spec.attribute), spec.dimension
            )
            return joint[:, 1:, :scale].sum(axis=0)
        other = self.specs[0]
        joint = self._slices.pair_hist(
            self._key, (other.side, other.attribute), spec.dimension
        )
        return joint[1:, :, :scale].sum(axis=1)


class ContainmentFamily(_FamilySource):
    """All FILTER candidates on one multi-valued attribute, stacked.

    A multi-valued FILTER ⟨a, v⟩ keeps the parent rows whose entity's set
    *contains* v, so the candidates overlap and no partition of the rows
    serves them.  Instead every (parent row, member value) incidence is
    listed once — the rows of candidate v, tagged with v's member code —
    and one ``bincount`` per spec keyed by (member, subgroup code + 1,
    bucket) yields every candidate's histogram matrix at once, with the
    :class:`StepSlices` trash-cell layout for missing codes and invalid
    scores.  Integer counts over the same record sets, so the matrices
    equal a direct scan of each candidate's rows.
    """

    route = "containment"

    def __init__(
        self,
        slices: StepSlices,
        side: Side,
        attribute: str,
        column: MultiValuedColumn,
        specs: tuple[RatingMapSpec, ...],
    ) -> None:
        self._slices = slices
        self._column = column
        self._scale = slices._scale
        self.side = side
        self.attribute = attribute
        self.specs = specs
        flat, offsets = column.membership()
        entities = slices.entity_rows(side)
        per_row = np.diff(offsets)[entities]
        first = np.cumsum(per_row) - per_row  # each row's first incidence
        #: incidence k: parent-row position and member code
        self._pos = np.repeat(np.arange(entities.size), per_row)
        self._tags = flat[
            np.arange(self._pos.size)
            + np.repeat(offsets[entities] - first, per_row)
        ]
        self.n_values = len(column.members)
        self.sizes = np.bincount(self._tags, minlength=self.n_values)
        self._lock = threading.Lock()
        self._flight = KeyedSingleFlight()
        self._buckets: dict[str, np.ndarray] = {}
        self._tensors: dict[RatingMapSpec, np.ndarray] = {}

    def code_of(self, value: Any) -> int | None:
        return self._column.member_code(value)

    def redundant(self, code: int | None, parent_size: int) -> bool:
        # a containment FILTER child is a subset of the parent
        return self.candidate_size(code) == parent_size

    def _incidence_buckets(self, dimension: str) -> np.ndarray:
        with self._lock:
            cached = self._buckets.get(dimension)
        if cached is not None:
            return cached
        built = self._slices.buckets(dimension)[self._pos]
        with self._lock:
            return self._buckets.setdefault(dimension, built)

    def _tensor(self, spec: RatingMapSpec) -> np.ndarray:
        """``(n_values, n_groups, scale)`` candidate histograms of one spec.

        Built for every rating dimension of the spec's attribute at once:
        the fused (member, subgroup) key is shared, only the bucket add
        and the bincount run per dimension.
        """
        with self._lock:
            tensor = self._tensors.get(spec)
        if tensor is not None:
            return tensor
        attr_key = (spec.side, spec.attribute)
        with self._flight.lock(attr_key):
            with self._lock:
                tensor = self._tensors.get(spec)
            if tensor is not None:
                return tensor
            scale = self._scale
            codes1, n_groups, __ = self._slices.codes1(*attr_key)
            key = self._tags * (n_groups + 1)
            key += codes1[self._pos]
            key *= scale + 1
            cells = self.n_values * (n_groups + 1) * (scale + 1)
            for other in self.specs:
                if (other.side, other.attribute) != attr_key:
                    continue
                flat = np.bincount(
                    key + self._incidence_buckets(other.dimension),
                    minlength=cells,
                )
                built = flat.reshape(self.n_values, n_groups + 1, scale + 1)
                with self._lock:
                    self._tensors[other] = built[:, 1:, :scale]
            with self._lock:
                return self._tensors[spec]

    def candidate_counts(self, code: int, spec: RatingMapSpec) -> np.ndarray:
        return self._tensor(spec)[code]

    def stacked_counts(self, codes: np.ndarray, spec: RatingMapSpec) -> np.ndarray:
        return self._tensor(spec)[codes]
