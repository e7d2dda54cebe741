"""`IndexedDatabase`: the sufficient-statistic index behind the engine.

The facade owns the posting-list store and the root group's counts, and
hands the Recommendation Builder a per-step :class:`NeighborhoodContext`
that serves every candidate operation's sufficient statistics by the
cheapest exact route:

* **FILTER cube** — a FILTER on a categorical/numeric attribute is one
  slice of a fused :class:`~repro.index.cubes.CandidateCube` over the
  parent's rows (built once per attribute per step, shared by all of that
  attribute's values);
* **sibling cube** — a CHANGE ⟨a, v⟩→⟨a, v′⟩ on a categorical/numeric
  pair is a FILTER child of the *sibling group* (the parent without
  ⟨a, v⟩), so one cube on axis a over the sibling's rows serves all of
  a's CHANGE values, and the GENERALIZE candidate dropping ⟨a, v⟩ (the
  sibling group itself) sums its histograms out of that cube's joints;
* **containment family** — a FILTER on a multi-valued attribute is served
  by one stacked pass over every (row, member value) incidence of the
  parent (:class:`~repro.index.cubes.ContainmentFamily`);
* **residue** — what remains (multi-valued CHANGE/GENERALIZE, compounds,
  over-budget families) → rows from posting-list intersections,
  histograms either delta-maintained from the parent's cached counts or
  scanned directly, whichever touches fewer rows.

All routes produce the integer count matrices a naive full scan would, so
the indexed engine is byte-identical to the oracle — `use_index` merely
chooses how the same numbers are computed.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Any, Callable, Hashable

import numpy as np

from ..concurrency import KeyedSingleFlight
from ..core.rating_maps import RatingMapSpec, enumerate_map_specs
from ..db.column import MultiValuedColumn
from ..model.database import Side, SubjectiveDatabase
from ..model.groups import AVPair, RatingGroup, SelectionCriteria
from ..model.operations import Operation
from ..obs import span as obs_span
from .cubes import (
    CandidateCube,
    ContainmentFamily,
    FilterAxis,
    StepSlices,
    axis_for,
    cube_cells,
)
from .delta import delta_counts, direct_counts, prefer_delta, split_rows
from .postings import PostingListStore

__all__ = ["IndexedDatabase", "NeighborhoodContext"]


class IndexedDatabase:
    """Index layer over one :class:`SubjectiveDatabase`.

    Besides the posting lists it keeps the root group's scan state and
    containment families (:meth:`step_slices`, :meth:`root_family`) for
    its whole lifetime.  ``memory_budget_bytes`` bounds the posting-list
    store;
    ``max_cube_cells`` caps the histogram cells of any one fused family —
    FILTER cube, sibling cube or group, containment family (a family that
    would exceed it falls back to the posting path — correctness never
    depends on the budget).
    """

    def __init__(
        self,
        database: SubjectiveDatabase,
        memory_budget_bytes: int = 64 * 1024 * 1024,
        max_cube_cells: int = 4_000_000,
    ) -> None:
        self._db = database
        self._postings = PostingListStore(database, memory_budget_bytes)
        self._max_cube_cells = int(max_cube_cells)
        self._axes: dict[tuple[Side, str], FilterAxis | None] = {}
        self._axes_lock = threading.Lock()
        self._counters = _Counters(
            "cube_builds",
            "cube_bytes",
            "candidates_cube",
            "candidates_sibling",
            "candidates_containment",
            "candidates_delta",
            "candidates_direct",
        )
        # a bound method of the counters, not of self: the kept root slices
        # hold it, and a cycle back to the index would leave the index to
        # the cyclic collector
        self._on_pair_build = partial(self._counters.bump, "cube_bytes")
        self._root_lock = threading.Lock()
        self._root_slices: StepSlices | None = None
        self._root_families = _BuildOnce()

    # -- plumbing -----------------------------------------------------------
    @property
    def database(self) -> SubjectiveDatabase:
        return self._db

    @property
    def postings(self) -> PostingListStore:
        return self._postings

    @property
    def max_cube_cells(self) -> int:
        return self._max_cube_cells

    def _bump(self, counter: str, by: int = 1) -> None:
        self._counters.bump(counter, by)

    def stats(self) -> dict[str, Any]:
        """Hit/bytes counters for `/metrics`."""
        return {"postings": self._postings.stats(), **self._counters.snapshot()}

    # -- group materialisation ---------------------------------------------
    def rows_for(self, criteria: SelectionCriteria) -> np.ndarray:
        return self._postings.rows_for(criteria)

    def group(self, criteria: SelectionCriteria) -> RatingGroup:
        """Materialise a rating group from postings (no table scans)."""
        return RatingGroup.from_rows(
            self._db,
            criteria,
            self.rows_for(criteria),
            self._postings.entity_count(Side.REVIEWER, criteria),
            self._postings.entity_count(Side.ITEM, criteria),
        )

    def axis(self, side: Side, attribute: str) -> FilterAxis | None:
        key = (side, attribute)
        with self._axes_lock:
            if key in self._axes:
                return self._axes[key]
        built = axis_for(self._db, side, attribute)
        with self._axes_lock:
            return self._axes.setdefault(key, built)

    def neighborhood(self, parent: RatingGroup) -> "NeighborhoodContext":
        """Per-step context for scoring ``parent``'s operation neighbourhood."""
        return NeighborhoodContext(self, parent)

    # -- scan state ----------------------------------------------------------
    def step_slices(
        self, criteria: SelectionCriteria, rows: np.ndarray | None = None
    ) -> StepSlices:
        """The scan state of ``criteria``'s group (``rows``, if known).

        The root's is built once and kept for the index's lifetime: every
        session opens at the root (Algorithm 1 reads its phase counts), and
        every CHANGE out of a one-pair group scans it as the sibling.  It
        holds only integer counts of a group that never changes, filled
        lazily under its own single-flight locks, so sharing it across
        steps and threads moves no answer.
        Any other group's is fresh and lives as long as its step.
        """
        if criteria.pairs:
            if rows is None:
                rows = self.rows_for(criteria)
            return StepSlices(self._db, rows, on_pair_build=self._on_pair_build)
        with self._root_lock:
            if self._root_slices is None:
                self._root_slices = StepSlices(
                    self._db,
                    self.rows_for(criteria),
                    on_pair_build=self._on_pair_build,
                )
            return self._root_slices

    def root_family(self, key: tuple, build: Callable[[], Any]) -> Any:
        """A family over the kept root slices under ``key``, built once.

        Kept here rather than on :class:`StepSlices`: a family holds its
        slices, and a slices → family → slices cycle would keep every
        step's histograms alive until the cyclic collector runs.
        """
        return self._root_families.get(key, build)


class NeighborhoodContext:
    """Candidate statistics for one recommendation step.

    Cubes, sibling slices and the parent's own histograms are built
    lazily, once, under per-key single-flight locks — the Recommendation
    Builder scores candidates from many threads at once.  The context and
    its families live as long as the step's scoring.  The scan state it
    reads (:meth:`IndexedDatabase.step_slices`) does too, except the root
    group's, which the index keeps with the root's containment families.
    """

    def __init__(self, index: IndexedDatabase, parent: RatingGroup) -> None:
        self._index = index
        self._db = index.database
        self._parent = parent
        self._parent_rows = parent.rows
        self._parent_size = len(parent)
        self._specs = tuple(
            enumerate_map_specs(self._db, parent.criteria)
        )
        self._spec_set = frozenset(self._specs)
        self._slices = index.step_slices(parent.criteria, self._parent_rows)
        #: the family sources built lazily for the step, by key (``None`` =
        #: over budget or not servable — the candidate takes the posting path)
        self._sources = _BuildOnce()

    @property
    def parent_size(self) -> int:
        return self._parent_size

    @property
    def parent_rows(self) -> np.ndarray:
        return self._parent_rows

    def parent_counts(self, spec: RatingMapSpec) -> np.ndarray:
        """The parent group's histogram matrix for ``spec`` (cached)."""
        return self._slices.group_hist(spec)

    def _child_specs(self, side: Side, attribute: str) -> tuple[RatingMapSpec, ...]:
        """Specs of a FILTER child on ``attribute`` — the parent's minus it.

        Matches ``enumerate_map_specs(db, parent.with_pair(...))`` exactly:
        enumeration iterates the database's grouping attributes in a fixed
        order and skips fixed ones, so filtering the parent's sequence
        preserves both the set and the order.
        """
        return tuple(
            s
            for s in self._specs
            if not (s.side is side and s.attribute == attribute)
        )

    def _admit(self, n_values: int, specs: tuple[RatingMapSpec, ...]) -> int:
        """The family's histogram cells if within budget, else 0."""
        if not specs:
            return 0
        cells = cube_cells(self._db, n_values, specs)
        return cells if cells <= self._index.max_cube_cells else 0

    def cube(self, side: Side, attribute: str) -> CandidateCube | None:
        """The parent's FILTER cube on a categorical/numeric attribute."""

        def build() -> CandidateCube | None:
            axis = self._index.axis(side, attribute)
            specs = self._child_specs(side, attribute)
            cells = 0 if axis is None else self._admit(axis.n_values, specs)
            if not cells:
                return None
            return self._build_cube(self._slices, axis, specs, cells)

        return self._sources.get(("cube", side, attribute), build)

    def _build_cube(
        self,
        slices: StepSlices,
        axis: FilterAxis,
        specs: tuple[RatingMapSpec, ...],
        cells: int,
        **sibling: Any,
    ) -> CandidateCube:
        with obs_span(
            "index.cube.build",
            side=axis.side.value,
            attribute=axis.attribute,
            cells=cells,
        ):
            cube = CandidateCube(slices, axis, specs, **sibling)
        self._index._bump("cube_builds")
        return cube

    def sibling_cube(self, pair: AVPair) -> CandidateCube | None:
        """The cube serving every CHANGE of the parent's ``pair``.

        Each CHANGE ⟨a, v⟩→⟨a, v′⟩ is a FILTER child of the sibling group
        (the parent without ⟨a, v⟩), with the parent's own specs — a stays
        fixed — so one cube on axis a over the sibling group's own slices
        serves all of a's CHANGE values (categorical/numeric pairs only).
        """

        def build() -> CandidateCube | None:
            axis = self._index.axis(pair.side, pair.attribute)
            cells = 0 if axis is None else self._admit(axis.n_values, self._specs)
            if not cells:
                return None
            return self._build_cube(
                self._index.step_slices(self._parent.criteria.without_pair(pair)),
                axis,
                self._specs,
                cells,
                sibling=True,
                parent_code=axis.code_of(pair.value),
            )

        return self._sources.get(("change", pair), build)

    def sibling_group(self, pair: AVPair) -> "_SiblingCandidate | None":
        """The GENERALIZE candidate dropping ``pair``, from the sibling cube."""
        cube = self.sibling_cube(pair)
        if cube is None:
            return None
        criteria = self._parent.criteria.without_pair(pair)
        return _SiblingCandidate(
            criteria, tuple(enumerate_map_specs(self._db, criteria)), cube
        )

    def containment(self, side: Side, attribute: str) -> ContainmentFamily | None:
        """The stacked family of a multi-valued attribute's FILTERs."""

        def build() -> ContainmentFamily | None:
            column = self._db.entity_table(side).column(attribute)
            specs = self._child_specs(side, attribute)
            if not isinstance(column, MultiValuedColumn) or not self._admit(
                len(column.members), specs
            ):
                return None
            with obs_span(
                "index.containment.build", side=side.value, attribute=attribute
            ):
                return ContainmentFamily(
                    self._slices, side, attribute, column, specs
                )

        key = ("containment", side, attribute)
        if self._parent.criteria.pairs:
            return self._sources.get(key, build)
        return self._index.root_family(key, build)

    def family_route(
        self, operation: Operation
    ) -> "tuple[CandidateCube | ContainmentFamily, int | None] | None":
        """The fused family serving one candidate, and its member code.

        * a FILTER on a categorical/numeric attribute → the parent's cube;
        * a FILTER on a multi-valued attribute → the containment family;
        * a CHANGE of a categorical/numeric pair → that pair's sibling cube.

        The code is ``None`` for an out-of-domain value (an empty
        candidate).  Returns ``None`` for everything else — GENERALIZE,
        multi-valued CHANGE, compounds, over-budget families — which the
        batched family scorer treats as loose candidates.
        """
        target = operation.target
        parent_pairs = self._parent.criteria.pairs
        added = tuple(target.pairs - parent_pairs)
        removed = tuple(parent_pairs - target.pairs)
        if len(added) != 1 or len(removed) > 1:
            return None
        pair = added[0]
        source: CandidateCube | ContainmentFamily | None
        if not removed:
            source = self.cube(pair.side, pair.attribute) or self.containment(
                pair.side, pair.attribute
            )
        elif removed[0].side is pair.side and removed[0].attribute == pair.attribute:
            source = self.sibling_cube(removed[0])
        else:
            return None
        if source is None:
            return None
        return source, source.code_of(pair.value)

    def count_candidates(self, route: str, n: int) -> None:
        """Attribute ``n`` family-served candidates to the index counters."""
        self._index._bump(f"candidates_{route}", n)

    def candidate(
        self, operation: Operation
    ) -> "_FamilyCandidate | _SiblingCandidate | _RowsCandidate":
        """The cheapest exact statistics view of one candidate operation."""
        route = self.family_route(operation)
        if route is not None:
            source, code = route
            self.count_candidates(source.route, 1)
            return _FamilyCandidate(source, code, operation.target)
        parent_pairs = self._parent.criteria.pairs
        removed = tuple(parent_pairs - operation.target.pairs)
        if len(removed) == 1 and operation.target.pairs < parent_pairs:
            group = self.sibling_group(removed[0])
            if group is not None:
                self.count_candidates("sibling", 1)
                return group
        return _RowsCandidate(self, operation.target)


class _Counters:
    """Named integer counters behind one lock."""

    def __init__(self, *names: str) -> None:
        self._lock = threading.Lock()
        self._values = dict.fromkeys(names, 0)

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._values[name] += by

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._values)


class _BuildOnce:
    """Values built lazily, once per key, under per-key single-flight locks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flight = KeyedSingleFlight()
        self._values: dict[Hashable, Any] = {}

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        with self._lock:
            if key in self._values:
                return self._values[key]
        with self._flight.lock(key):
            with self._lock:
                if key in self._values:
                    return self._values[key]
            built = build()
            with self._lock:
                self._values[key] = built
            return built


class _FamilyCandidate:
    """A candidate served from one member of a fused family."""

    def __init__(
        self,
        source: CandidateCube | ContainmentFamily,
        code: int | None,
        target: SelectionCriteria,
    ) -> None:
        self._source = source
        self._code = code
        self.criteria = target

    @property
    def size(self) -> int:
        return self._source.candidate_size(self._code)

    def matches_parent(self, parent_size: int) -> bool:
        return self._source.redundant(self._code, parent_size)

    @property
    def specs(self) -> tuple[RatingMapSpec, ...]:
        return self._source.specs

    def counts_of(self, spec: RatingMapSpec) -> np.ndarray:
        if self._code is None:
            return self._source.zero_counts(spec)
        return self._source.candidate_counts(self._code, spec)

    def labels_of(self, spec: RatingMapSpec) -> tuple[Any, ...]:
        return self._source.labels_of(spec)


class _SiblingCandidate:
    """A GENERALIZE candidate: the sibling group, summed from its cube."""

    def __init__(
        self,
        criteria: SelectionCriteria,
        specs: tuple[RatingMapSpec, ...],
        cube: CandidateCube,
    ) -> None:
        self._cube = cube
        self.criteria = criteria
        self.specs = specs
        self.size = cube.group_size

    def matches_parent(self, parent_size: int) -> bool:
        # the sibling group is a superset of the parent
        return self.size == parent_size

    def counts_of(self, spec: RatingMapSpec) -> np.ndarray:
        return self._cube.group_counts(spec)

    def labels_of(self, spec: RatingMapSpec) -> tuple[Any, ...]:
        return self._cube.labels_of(spec)


class _RowsCandidate:
    """A candidate served from posting intersections + delta maintenance."""

    def __init__(self, ctx: NeighborhoodContext, target: SelectionCriteria) -> None:
        self._ctx = ctx
        self._db = ctx._db
        self.criteria = target
        self._rows = ctx._index.rows_for(target)
        self._diff: tuple[np.ndarray, np.ndarray] | None = None
        self._specs: tuple[RatingMapSpec, ...] | None = None

    @property
    def size(self) -> int:
        return int(self._rows.size)

    def matches_parent(self, parent_size: int) -> bool:
        return self._rows.size == parent_size and bool(
            np.array_equal(self._rows, self._ctx.parent_rows)
        )

    @property
    def specs(self) -> tuple[RatingMapSpec, ...]:
        if self._specs is None:
            self._specs = tuple(
                enumerate_map_specs(self._db, self.criteria)
            )
        return self._specs

    def counts_of(self, spec: RatingMapSpec) -> np.ndarray:
        # |removed| ≥ parent − child, so when parent − child ≥ child the
        # delta can never touch fewer rows than a direct scan — skip even
        # computing the set differences
        delta_possible = (
            spec in self._ctx._spec_set
            and self._ctx.parent_size - self._rows.size < self._rows.size
        )
        if delta_possible:
            if self._diff is None:
                self._diff = split_rows(self._ctx.parent_rows, self._rows)
            removed, added = self._diff
            if prefer_delta(removed, added, self._rows.size):
                self._ctx._index._bump("candidates_delta")
                return delta_counts(
                    self._db, spec, self._ctx.parent_counts(spec), removed, added
                )
        self._ctx._index._bump("candidates_direct")
        return direct_counts(self._db, spec, self._rows)

    def labels_of(self, spec: RatingMapSpec) -> tuple[Any, ...]:
        return self._db.aligned_grouping(spec.side, spec.attribute).labels
