"""Recommendation Builder: next-step recommendations (Problem 2, paper §4.3).

Candidate operations are the ≤-2-edit neighbourhood of the current selection
criteria.  Each candidate is scored by Eq. (2): the sum of the DW utilities
of the k rating maps its rating group would display — i.e. the RM-Set
Generator is reused as the scoring oracle, which is exactly how the paper
recommends maps and operations *simultaneously*.

One loop, :meth:`RecommendationBuilder._scan`, serves both entry points:
:meth:`~RecommendationBuilder.recommend` is the scan with no budget, and
:meth:`~RecommendationBuilder.recommend_anytime` the same scan with a soft
budget, a quality-ladder rung or a forced cut.  Candidates are scored by
the family-batched kernel (:mod:`repro.batch`) on the request's thread.
The per-candidate paths — the naive oracle, full-pipeline previews and
configurations the kernel does not cover — evaluate independent
candidates on a thread pool instead (the histogram accumulation is
numpy-bound and releases the GIL); ``parallel=False`` gives the paper's
No-Parallelism baseline there.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle: index builds on core
    from ..index.facade import IndexedDatabase, NeighborhoodContext

from ..anytime.budget import effective_deadline
from ..anytime.ladder import QualityRung, RungPlan
from ..anytime.partial import AnytimeRecommendation, Completeness
from ..batch.scoring import (
    BatchScored,
    FamilyBatchScorer,
    plan_lookup,
    supports_batch,
)
from ..model.database import SubjectiveDatabase
from ..model.groups import RatingGroup, SelectionCriteria
from ..model.operations import Operation, enumerate_operations
from ..obs import activate as obs_activate
from ..obs import current_context as obs_current_context
from ..obs import span as obs_span
from ..resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)
from ..resilience.gate import pressure_scope, under_pressure
from .distance import MapDistanceMethod
from .generator import RMSetGenerator, RMSetResult
from .pruning import PruningStrategy
from .utility import SeenMaps

__all__ = ["RecommenderConfig", "ScoredOperation", "RecommendationBuilder"]

#: Operations whose rating group is smaller than this are discarded: too
#: few records to chart.
MIN_GROUP_SIZE = 5
#: Phases of the default (exact, unpruned) candidate preview.
PREVIEW_N_PHASES = 1
#: Under load pressure (see :mod:`repro.resilience.gate`) only the first
#: this-many candidate operations are scored — recommendation quality
#: degrades before availability does.
PRESSURE_CANDIDATE_CAP = 16


@dataclass(frozen=True)
class RecommenderConfig:
    """Parameters of the Recommendation Builder.

    ``o`` is the number of recommendations (paper default 3);
    ``max_values_per_attribute`` caps the FILTER/CHANGE fan-out per
    attribute (most frequent values first).

    ``preview_uses_full_pipeline`` controls how candidate operations are
    scored.  By default each candidate's rating maps are computed with a
    single exact pass (``PREVIEW_N_PHASES``, no pruning): the phased
    pruning framework exists to cut *scan* cost, but for in-memory
    candidate scoring a single vectorised pass is both faster and exact.
    The scalability benches set ``preview_uses_full_pipeline=True`` so the
    recommender exercises the configured pruning scheme end to end, as the
    paper's timing experiments do.
    """

    o: int = 3
    max_values_per_attribute: int | None = None
    parallel: bool = True
    preview_uses_full_pipeline: bool = False

    def workers(self) -> int:
        """Scoring threads of the per-candidate paths, and the candidate
        count of one block of a budgeted scan."""
        if not self.parallel:
            return 1
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ScoredOperation:
    """A candidate operation with its Eq.-(2) utility and map preview."""

    operation: Operation
    utility: float
    preview: RMSetResult

    @property
    def target(self) -> SelectionCriteria:
        return self.operation.target

    def describe(self) -> str:
        return f"{self.operation.describe()}  [u={self.utility:.3f}]"


class RecommendationBuilder:
    """Scores the operation neighbourhood and returns the top-o."""

    def __init__(
        self,
        database: SubjectiveDatabase,
        generator: RMSetGenerator,
        config: RecommenderConfig | None = None,
        index: "IndexedDatabase | None" = None,
        batch_scoring: bool = True,
    ) -> None:
        self._database = database
        self._generator = generator
        self._config = config or RecommenderConfig()
        self._index = index
        self._batch_scoring = bool(batch_scoring)
        if self._config.preview_uses_full_pipeline:
            self._preview_generator = generator
        else:
            self._preview_generator = RMSetGenerator(
                replace(
                    generator.config,
                    n_phases=PREVIEW_N_PHASES,
                    pruning=PruningStrategy.NONE,
                )
            )
        # per-candidate scoring pool: created on first use and reused for
        # the builder's lifetime (no per-request thread churn)
        self._pool_lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._batch_lock = threading.Lock()
        self._batch_totals = {
            "requests": 0,
            "families": 0,
            "candidates": 0,
            "batched": 0,
            "scored": 0,
            "evaluated": 0,
            "pruned": 0,
            "materialized": 0,
            "fallback": 0,
        }

    @property
    def config(self) -> RecommenderConfig:
        return self._config

    @property
    def batch_scoring(self) -> bool:
        """Whether family-batched scoring is enabled for this builder."""
        return self._batch_scoring

    def batch_stats(self) -> dict[str, int]:
        """Lifetime family-batching counters (for ``/metrics``)."""
        with self._batch_lock:
            return dict(self._batch_totals)

    def _merge_batch_stats(self, stats: "dict[str, int]", fallback: int) -> None:
        with self._batch_lock:
            self._batch_totals["requests"] += 1
            self._batch_totals["fallback"] += fallback
            for key in ("families", "candidates", "batched", "scored",
                        "evaluated", "pruned", "materialized"):
                self._batch_totals[key] += stats[key]

    def _shared_pool(self) -> "ThreadPoolExecutor | None":
        """The builder-lifetime scoring pool (``None`` when serial)."""
        workers = self._config.workers()
        if workers <= 1:
            return None
        with self._pool_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="subdex-score"
                )
            return self._executor

    def candidate_operations(self, current: SelectionCriteria) -> list[Operation]:
        """The enumerated (unscored) neighbourhood of ``current``."""
        return list(
            enumerate_operations(
                self._database,
                current,
                max_values_per_attribute=self._config.max_values_per_attribute,
            )
        )

    def _materialise(self, criteria: SelectionCriteria) -> RatingGroup:
        """A criteria's rating group, via the index when one is attached."""
        if self._index is not None:
            return self._index.group(criteria)
        return RatingGroup(self._database, criteria)

    def _score_one(
        self,
        operation: Operation,
        seen: SeenMaps,
        current_rows: np.ndarray,
        generator: RMSetGenerator,
    ) -> ScoredOperation | None:
        group = self._materialise(operation.target)
        if len(group) < MIN_GROUP_SIZE:
            return None
        if len(group) == len(current_rows):
            # §3.2.1: an operation generates a *new* rating group — adding a
            # redundant pair (1992 ⊆ 1990s) selects the same records and is
            # not a real move (it also causes add/remove oscillation in FA)
            if np.array_equal(group.rows, current_rows):
                return None
        preview = generator.generate(group, seen)
        if not preview.selected:
            return None
        return ScoredOperation(operation, preview.total_utility(), preview)

    def _score_one_indexed(
        self,
        ctx: "NeighborhoodContext",
        operation: Operation,
        seen: SeenMaps,
        generator: RMSetGenerator,
    ) -> ScoredOperation | None:
        """Score from sufficient statistics — no group materialisation.

        Mirrors :meth:`_score_one` decision for decision: same size gate,
        same redundancy test (a FILTER child is a subset of the parent, so
        its size alone settles row equality), and the preview is generated
        from count matrices identical to what the naive scan produces.
        """
        view = ctx.candidate(operation)
        size = view.size
        if size < MIN_GROUP_SIZE:
            return None
        if view.matches_parent(ctx.parent_size):
            return None
        preview = generator.generate_from_counts(
            operation.target,
            view.specs,
            view.counts_of,
            view.labels_of,
            size,
            seen,
        )
        if not preview.selected:
            return None
        return ScoredOperation(operation, preview.total_utility(), preview)

    def recommend(
        self,
        current: SelectionCriteria,
        seen: SeenMaps,
        o: int | None = None,
        candidates: Sequence[Operation] | None = None,
        exclude_targets: "set[SelectionCriteria] | frozenset[SelectionCriteria] | None" = None,
        current_group: RatingGroup | None = None,
    ) -> list[ScoredOperation]:
        """Problem 2: the top-o next operations by aggregated DW utility.

        ``exclude_targets`` drops candidates leading back to selections the
        session has already examined — the operation-level counterpart of
        multi-step diversity.  Without it, two selections whose map sets
        tie in utility trap the Fully-Automated mode in an A↔B cycle.

        ``current_group`` lets callers that already hold the current
        selection's rating group (sessions, the caching engine) pass it in
        instead of having it re-materialised here; it is used only when its
        criteria matches ``current``.
        """
        o = self._config.o if o is None else o
        with obs_span("engine.recommend") as sp:
            scan = self._scan(
                current, seen, o, candidates, exclude_targets, current_group
            )
            sp.set(
                candidates=scan.total,
                scored=scan.scored,
                indexed=scan.indexed,
                batched=scan.batched,
                returned=len(scan.top),
            )
            return scan.top

    def recommend_anytime(
        self,
        current: SelectionCriteria,
        seen: SeenMaps,
        budget: "Deadline | None" = None,
        o: int | None = None,
        plan: "RungPlan | None" = None,
        candidates: Sequence[Operation] | None = None,
        exclude_targets: "set[SelectionCriteria] | frozenset[SelectionCriteria] | None" = None,
        current_group: RatingGroup | None = None,
        force_cut_after: int | None = None,
    ) -> AnytimeRecommendation:
        """Cooperative-anytime Problem 2: best-so-far under a soft budget.

        With a ``budget`` or ``force_cut_after`` the scan runs in blocks of
        ``config.workers()`` candidates; between blocks the best-so-far
        ranking is a well-defined snapshot.  When ``budget`` — a *soft*
        limit, distinct from the ambient hard deadline — expires, the scan
        cuts at the next boundary and returns a partial result with an
        honest :class:`~repro.anytime.partial.Completeness` instead of
        raising.  The ambient hard deadline still unwinds with
        :class:`~repro.resilience.deadline.DeadlineExceeded` (a budget
        larger than the remaining deadline can never be honoured — the
        smaller limit always wins).

        ``plan`` applies a quality-ladder rung: a candidate cap, a sample
        stride and cheaper previews.  ``force_cut_after`` (from
        :meth:`~repro.resilience.faults.FaultPlan.budget_cut`) forces the
        cut after that many blocks, making partial-result paths testable
        without timing races.  With no budget, no plan and no forced cut
        the scan is :meth:`recommend`'s — one block — and so is the result.
        """
        o = self._config.o if o is None else o
        started = time.perf_counter()
        with obs_span(
            "anytime.recommend",
            rung=plan.label if plan is not None else QualityRung.FULL.label,
            budget_ms=(
                round(budget.budget_seconds * 1000.0) if budget is not None else None
            ),
        ) as sp:
            scan = self._scan(
                current,
                seen,
                o,
                candidates,
                exclude_targets,
                current_group,
                plan=plan,
                budget=budget,
                force_cut_after=force_cut_after,
            )
            preview = scan.preview.config
            confidence = 1.0
            if preview.pruning is not PruningStrategy.NONE:
                confidence = 1.0 - preview.delta
            completeness = Completeness(
                rung=plan.rung if plan is not None else QualityRung.FULL,
                candidates_total=scan.total,
                candidates_scanned=scan.scanned,
                candidates_scored=scan.scored,
                complete=not scan.budget_cut and scan.scanned == scan.total,
                pruning_confidence=confidence,
                snapshots=scan.snapshots,
                budget_cut=scan.budget_cut,
            )
            sp.set(
                candidates=scan.total,
                scanned=scan.scanned,
                complete=completeness.complete,
                batched=scan.batched,
                snapshots=scan.snapshots,
            )
            return AnytimeRecommendation(
                recommendations=tuple(scan.top),
                completeness=completeness,
                elapsed_seconds=time.perf_counter() - started,
            )

    def _preview_for(self, plan: "RungPlan | None") -> RMSetGenerator:
        """The preview generator a ladder rung prescribes.

        ``preview_phases`` applies everywhere; a ``pruning`` override only
        makes sense when previews run the full phased pipeline (the exact
        single-pass preview has nothing to prune).
        """
        if plan is None:
            return self._preview_generator
        base = self._preview_generator.config
        changes: dict[str, object] = {}
        if plan.preview_phases is not None and base.n_phases != plan.preview_phases:
            changes["n_phases"] = max(1, plan.preview_phases)
        if plan.pruning is not None and self._config.preview_uses_full_pipeline:
            strategy = PruningStrategy(plan.pruning)
            if base.pruning is not strategy:
                changes["pruning"] = strategy
        if not changes:
            return self._preview_generator
        return RMSetGenerator(replace(base, **changes))

    def _scan(
        self,
        current: SelectionCriteria,
        seen: SeenMaps,
        o: int,
        candidates: "Sequence[Operation] | None",
        exclude_targets: "set[SelectionCriteria] | frozenset[SelectionCriteria] | None",
        current_group: "RatingGroup | None",
        plan: "RungPlan | None" = None,
        budget: "Deadline | None" = None,
        force_cut_after: int | None = None,
    ) -> "_Scan":
        """The recommendation loop: enumerate, score in blocks, rank.

        A block boundary exists only where something can act on it — a
        soft ``budget`` or a forced cut.  Without either, the whole
        neighbourhood is one block; otherwise a block is
        ``config.workers()`` candidates in scan order.
        """
        operations = (
            list(candidates)
            if candidates is not None
            else self.candidate_operations(current)
        )
        if exclude_targets:
            filtered = [op for op in operations if op.target not in exclude_targets]
            if filtered:
                operations = filtered
        # Ambient request context (deadline, load pressure, active trace)
        # lives in contextvars, which pool threads do not inherit: capture
        # it here and re-install it around every scoring call so candidate
        # spans join this request's trace.  The *soft* limit governs
        # scoring so a spent budget aborts the in-flight block quickly; the
        # cut decision below distinguishes it from the hard deadline.
        hard = current_deadline()
        limit = effective_deadline(hard, budget)
        pressure = under_pressure()
        trace_ctx = obs_current_context()
        if pressure:
            operations = operations[:PRESSURE_CANDIDATE_CAP]
        total = len(operations)
        if plan is not None:
            if plan.candidate_cap is not None:
                operations = operations[: plan.candidate_cap]
            if plan.sample_stride > 1:
                operations = operations[:: plan.sample_stride]
        if current_group is None or current_group.criteria != current:
            current_group = self._materialise(current)
        current_rows = current_group.rows
        preview = self._preview_for(plan)
        # Sufficient-statistic fast path: candidates are scored from fused
        # cube slices / delta-maintained histograms instead of per-candidate
        # group scans.  The full-pipeline preview mode exercises the phased
        # pruning machinery on purpose, so it keeps the group-based path.
        ctx: "NeighborhoodContext | None" = None
        if self._index is not None and not self._config.preview_uses_full_pipeline:
            ctx = self._index.neighborhood(current_group)

        # family batching needs the index context, a kernel-covered config
        # and PROFILE map distance, which evaluate_candidate's GMM replays
        batch: "FamilyBatchScorer | None" = None
        preview_config = self._preview_generator.config
        if (
            ctx is not None
            and self._batch_scoring
            and supports_batch(preview_config)
            and preview_config.distance_method is MapDistanceMethod.PROFILE
        ):
            batch = FamilyBatchScorer(ctx, preview, seen, o, MIN_GROUP_SIZE)
            lookup = plan_lookup(ctx, operations)

        def score(operation: Operation) -> "ScoredOperation | None":
            with deadline_scope(limit), pressure_scope(pressure), \
                    obs_activate(trace_ctx):
                if limit is not None:
                    limit.check()
                if ctx is not None:
                    return self._score_one_indexed(ctx, operation, seen, preview)
                return self._score_one(operation, seen, current_rows, preview)

        def score_block(
            block: "list[Operation]",
        ) -> "tuple[list[ScoredOperation | BatchScored | None], int]":
            if batch is not None:
                with deadline_scope(limit), pressure_scope(pressure), \
                        obs_activate(trace_ctx):
                    return batch.score_block(block, lookup)
            pool = self._shared_pool() if len(block) > 1 else None
            if pool is not None:
                results = list(pool.map(score, block))
            else:
                results = [score(op) for op in block]
            return results, sum(1 for result in results if result is not None)

        cuttable = budget is not None or force_cut_after is not None
        size = self._config.workers() if cuttable else max(1, len(operations))
        scored: "list[ScoredOperation | BatchScored | None]" = []
        scanned = scored_count = snapshots = 0
        budget_cut = False
        for offset in range(0, len(operations), size):
            if hard is not None:
                hard.check()
            if (force_cut_after is not None and snapshots >= force_cut_after) or (
                budget is not None and budget.expired
            ):
                budget_cut = True
                break
            block = operations[offset : offset + size]
            try:
                block_scored, block_count = score_block(block)
            except DeadlineExceeded:
                if hard is not None and hard.expired:
                    raise  # the hard deadline, not the budget
                budget_cut = True
                break
            scored.extend(block_scored)
            scanned += len(block)
            scored_count += block_count
            snapshots += 1
        top = self._materialize_top(self._rank(scored), o)
        if batch is not None:
            self._merge_batch_stats(
                batch.stats, fallback=scanned - batch.stats["candidates"]
            )
        return _Scan(
            top=top,
            total=total,
            scanned=scanned,
            scored=scored_count,
            snapshots=snapshots,
            budget_cut=budget_cut,
            indexed=ctx is not None,
            batched=batch is not None,
            preview=preview,
        )

    @staticmethod
    def _rank(
        scored: "Sequence[ScoredOperation | BatchScored | None]",
    ) -> "list[ScoredOperation | BatchScored]":
        return sorted(
            (s for s in scored if s is not None),
            key=lambda s: (-s.utility, s.operation.describe_key),
        )

    @staticmethod
    def _materialize_top(
        ranked: "Sequence[ScoredOperation | BatchScored]", o: int
    ) -> "list[ScoredOperation]":
        """The top-o with previews built — batch entries materialise here.

        Batch-scored candidates carry an exact utility but a lazy preview;
        only entries that actually make the returned top-o build their
        pool's rating maps.
        """
        return [
            entry.materialize() if isinstance(entry, BatchScored) else entry
            for entry in ranked[:o]
        ]


@dataclass(frozen=True)
class _Scan:
    """What one :meth:`RecommendationBuilder._scan` found.

    ``total`` counts candidates after exclusions and the pressure cap but
    before a ladder rung's cap and stride; ``snapshots`` counts the blocks
    scanned.
    """

    top: list[ScoredOperation]
    total: int
    scanned: int
    scored: int
    snapshots: int
    budget_cut: bool
    indexed: bool
    batched: bool
    preview: RMSetGenerator
