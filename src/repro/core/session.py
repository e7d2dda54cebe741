"""Exploration sessions: the stateful multi-step SDE process (paper §3.3).

A :class:`ExplorationSession` tracks the current rating group, the set RM of
rating maps the user has seen (dimension weights + global-peculiarity
references), and the step history.  The three exploration modes
(:mod:`repro.core.modes`) are thin drivers over this class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..exceptions import EmptyGroupError, OperationError
from ..obs import span as obs_span
from ..resilience.deadline import check_deadline
from ..resilience.gate import under_pressure
from ..model.database import SubjectiveDatabase
from ..model.groups import RatingGroup, SelectionCriteria
from ..model.operations import Operation, OperationKind
from .generator import RMSetGenerator, RMSetResult
from .recommend import RecommendationBuilder, ScoredOperation
from .utility import SeenMaps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..anytime.ladder import RungPlan
    from ..anytime.partial import AnytimeRecommendation
    from ..index.facade import IndexedDatabase
    from ..resilience.deadline import Deadline
    from .caching import CachingEngine

__all__ = ["StepRecord", "ExplorationSession"]


@dataclass(frozen=True)
class StepRecord:
    """Everything one exploration step produced."""

    index: int
    criteria: SelectionCriteria
    group_size: int
    result: RMSetResult
    operation: Operation | None = None
    recommendations: tuple[ScoredOperation, ...] = ()
    elapsed_seconds: float = 0.0
    recommend_seconds: float = 0.0
    #: True when any stage answered from a degraded path (stale cached
    #: RM-Set, skipped diversity pass) under load pressure.
    degraded: bool = False

    @property
    def maps(self):
        return self.result.selected

    def describe(self) -> str:
        lines = [
            f"Step {self.index}: {self.criteria.describe()} "
            f"({self.group_size} records)"
        ]
        for rm in self.result.selected:
            lines.append(
                f"  · {rm.spec.describe()} "
                f"[û={self.result.dw_utility(rm):.3f}]"
            )
        for reco in self.recommendations:
            lines.append(f"  → {reco.describe()}")
        return "\n".join(lines)


@dataclass
class _SessionState:
    criteria: SelectionCriteria
    group: RatingGroup
    steps: list[StepRecord] = field(default_factory=list)


class ExplorationSession:
    """One user's multi-step exploration of a subjective database."""

    def __init__(
        self,
        database: SubjectiveDatabase,
        generator: RMSetGenerator,
        recommender: RecommendationBuilder,
        start: SelectionCriteria | None = None,
        cache: "CachingEngine | None" = None,
        index: "IndexedDatabase | None" = None,
    ) -> None:
        self._database = database
        self._generator = generator
        self._recommender = recommender
        self._cache = cache
        self._index = index
        self._seen = SeenMaps(
            database.dimensions,
            n_attributes=len(database.grouping_attributes()),
        )
        criteria = start if start is not None else SelectionCriteria.root()
        group = self._materialise(criteria)
        if group.is_empty:
            raise EmptyGroupError(
                f"starting criteria matches no records: {criteria.describe()}"
            )
        self._state = _SessionState(criteria, group)

    # -- accessors ----------------------------------------------------------
    @property
    def database(self) -> SubjectiveDatabase:
        return self._database

    @property
    def criteria(self) -> SelectionCriteria:
        return self._state.criteria

    @property
    def group(self) -> RatingGroup:
        return self._state.group

    @property
    def seen(self) -> SeenMaps:
        return self._seen

    @property
    def recommender(self) -> RecommendationBuilder:
        return self._recommender

    @property
    def steps(self) -> tuple[StepRecord, ...]:
        return tuple(self._state.steps)

    @property
    def n_steps(self) -> int:
        return len(self._state.steps)

    # -- computation backends ------------------------------------------------
    def _materialise(self, criteria: SelectionCriteria) -> RatingGroup:
        """Materialise a rating group, through the shared cache if any.

        When the session is created by :meth:`CachingEngine.session`, group
        row sets are shared with every other session on the same engine.
        """
        if self._cache is not None:
            return self._cache.group(criteria)
        if self._index is not None:
            return self._index.group(criteria)
        return RatingGroup(self._database, criteria)

    def _generate(self) -> RMSetResult:
        """Run the RM-Set Generator for the current state (cached if shared)."""
        if self._cache is not None:
            return self._cache.rating_maps(self._state.criteria, self._seen)
        group, index = self._state.group, self._index
        slices = (
            None if index is None else index.step_slices(group.criteria, group.rows)
        )
        return self._generator.generate(group, self._seen, slices=slices)

    # -- stepping -----------------------------------------------------------
    def step(
        self,
        operation: Operation | None = None,
        with_recommendations: bool = False,
    ) -> StepRecord:
        """Execute one exploration step.

        Without an ``operation`` the current rating group is (re)examined —
        this is the session's opening step.  With one, the session moves to
        the operation's target criteria first.  The step runs the RM-Set
        Generator, updates the seen-maps state, and optionally attaches the
        top-o next-step recommendations.
        """
        check_deadline()
        with obs_span(
            "session.step",
            step=len(self._state.steps) + 1,
            operation=operation.describe() if operation is not None else None,
        ) as sp:
            if operation is not None:
                group = self._materialise(operation.target)
                if group.is_empty:
                    raise OperationError(
                        f"operation yields an empty group: {operation.describe()}"
                    )
                self._state.criteria = operation.target
                self._state.group = group

            started = time.perf_counter()
            result = self._generate()
            for rating_map in result.selected:
                self._seen.add(rating_map)
            generate_elapsed = time.perf_counter() - started

            recommendations: tuple[ScoredOperation, ...] = ()
            recommend_elapsed = 0.0
            if with_recommendations:
                reco_started = time.perf_counter()
                visited = {s.criteria for s in self._state.steps}
                visited.add(self._state.criteria)
                recommendations = tuple(
                    self._recommender.recommend(
                        self._state.criteria,
                        self._seen,
                        exclude_targets=visited,
                        current_group=self._state.group,
                    )
                )
                recommend_elapsed = time.perf_counter() - reco_started
            sp.set(
                group_size=len(self._state.group),
                maps=len(result.selected),
                recommendations=len(recommendations),
            )

        record = StepRecord(
            index=len(self._state.steps) + 1,
            criteria=self._state.criteria,
            group_size=len(self._state.group),
            result=result,
            operation=operation,
            recommendations=recommendations,
            elapsed_seconds=generate_elapsed + recommend_elapsed,
            recommend_seconds=recommend_elapsed,
            degraded=result.degraded or (with_recommendations and under_pressure()),
        )
        self._state.steps.append(record)
        return record

    def stamp_step_timing(
        self,
        index: int,
        elapsed_seconds: float,
        recommend_seconds: float = 0.0,
    ) -> None:
        """Overwrite one step's recorded timings (1-based ``index``).

        Checkpoint restore replays a session's decisions, which reproduces
        the step *results* exactly but not the original wall-clock timings;
        stamping them back keeps history exports identical across restarts.
        """
        position = index - 1
        if not 0 <= position < len(self._state.steps):
            raise OperationError(
                f"no step {index} to stamp (session has "
                f"{len(self._state.steps)} steps)"
            )
        self._state.steps[position] = replace(
            self._state.steps[position],
            elapsed_seconds=elapsed_seconds,
            recommend_seconds=recommend_seconds,
        )

    def recommendations(self, o: int | None = None) -> list[ScoredOperation]:
        """Top-o next-step recommendations for the current state."""
        return self._recommender.recommend(
            self._state.criteria,
            self._seen,
            o=o,
            current_group=self._state.group,
        )

    def recommendations_anytime(
        self,
        budget: "Deadline | None" = None,
        o: int | None = None,
        plan: "RungPlan | None" = None,
        force_cut_after: int | None = None,
    ) -> "AnytimeRecommendation":
        """Budget-bounded recommendations for the current state.

        Uses the same visited-criteria exclusions as
        :meth:`step` ``(with_recommendations=True)``, so an unbudgeted
        full-rung recompute reproduces the step's stored recommendations
        exactly — which is what refinement jobs rely on.
        """
        visited = {s.criteria for s in self._state.steps}
        visited.add(self._state.criteria)
        return self._recommender.recommend_anytime(
            self._state.criteria,
            self._seen,
            budget=budget,
            o=o,
            plan=plan,
            exclude_targets=visited,
            current_group=self._state.group,
            force_cut_after=force_cut_after,
        )

    def apply_criteria(
        self, criteria: SelectionCriteria, with_recommendations: bool = False
    ) -> StepRecord:
        """User-driven step: jump straight to ``criteria``.

        The edit is wrapped in a synthetic operation so history stays
        uniform.
        """
        added = tuple(criteria.pairs - self._state.criteria.pairs)
        removed = tuple(self._state.criteria.pairs - criteria.pairs)
        operation = Operation(
            criteria, OperationKind.COMPOUND, added=added, removed=removed
        )
        return self.step(operation, with_recommendations=with_recommendations)
