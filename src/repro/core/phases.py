"""Phase-based execution framework (paper Algorithm 1).

The framework materialises all candidate rating maps of a rating group
incrementally: the group's records are split into ``n`` near-equal fractions
and each phase folds one fraction into per-candidate histogram accumulators.
Between phases a pluggable pruner (see :mod:`repro.core.pruning`) inspects
the partial scores and discards low-utility candidates so later phases touch
less state.

Records are processed in a seeded random permutation so the
Hoeffding–Serfling assumptions (uniform sampling without replacement) hold
regardless of the physical row order of the rating table.  The permutation
is applied once, up front: each grouping attribute's shifted codes and each
rating dimension's score buckets are gathered into scan order in the
trash-cell layout of :func:`~repro.db.groupby.score_buckets`, so phase ``i``
is the contiguous slice ``[b_i, b_{i+1})`` of every column.

Sharing (paper §4.2.1) is structural: candidates that group by the same
attribute share one :class:`~repro.db.groupby.SharedGroupByScan`, and
attributes share the dimensions' bucket columns, so a phase costs one
``bincount`` per live (attribute, dimension) pair.

Between phases the active specs are scored as arrays.  Under the
configurations the fused kernel covers (``supports_batch``: SQUASH
normalisation, MAX aggregation, STD/TVD criteria) every active spec is one
column of a single-candidate family and one
:func:`~repro.batch.kernel.batch_family_scores` call scores them all,
bitwise-equal to the scalar scorer; ablation configurations score through
:class:`~repro.core.interestingness.InterestingnessScorer` and feed the same
arrays.  :func:`finalize_from_counts` scores the final phase's survivors
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Collection, Hashable, Mapping, Sequence

import numpy as np

from ..batch.kernel import (
    batch_family_dw,
    batch_family_normalized,
    batch_family_scores,
    seen_probabilities,
)
from ..db.groupby import Grouping, SharedGroupByScan, phase_bounds, score_buckets
from ..model.groups import RatingGroup, SelectionCriteria
from ..obs import span as obs_span
from ..resilience.deadline import check_deadline
from .interestingness import InterestingnessScorer
from .rating_maps import RatingMap, RatingMapSpec, rating_map_from_counts
from .utility import (
    ScoredCandidate,
    SeenMaps,
    UtilityConfig,
    candidate_weight,
    dimension_weights,
    score_candidate_set,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..batch.kernel import FamilyScores
    from .pruning import Pruner

__all__ = [
    "PhaseSnapshot",
    "PhasedExecutionResult",
    "PhasedExecution",
    "finalize_from_counts",
]


@dataclass(frozen=True, eq=False)
class PhaseSnapshot:
    """What a pruner sees at the end of a phase.

    The arrays are aligned with ``specs``: ``normalized[i]`` holds spec
    ``i``'s normalised criteria (one column per utility criterion),
    ``weights[i]`` its DW weight and ``dw[i]`` its DW utility.  A snapshot
    is built from those arrays (``scores`` stays ``None``), or from a
    ``scores`` mapping of :class:`~repro.core.utility.ScoredCandidate`
    (the arrays are then derived from it, in mapping order).
    """

    phase: int
    n_phases: int
    rows_seen: int
    n_total: int
    scores: Mapping[Hashable, ScoredCandidate] | None = None
    specs: tuple[Hashable, ...] = ()
    normalized: np.ndarray | None = None
    weights: np.ndarray | None = None
    dw: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.dw is not None:
            return
        if self.scores is None:
            raise ValueError("a snapshot needs either scores or score arrays")
        candidates = list(self.scores.values())
        width = len(candidates[0].normalized) if candidates else 0
        normalized = np.array(
            [list(c.normalized.values()) for c in candidates], dtype=np.float64
        ).reshape(len(candidates), width)
        object.__setattr__(self, "specs", tuple(self.scores))
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(
            self, "weights", np.array([c.weight for c in candidates], dtype=np.float64)
        )
        object.__setattr__(
            self, "dw", np.array([c.dw_utility for c in candidates], dtype=np.float64)
        )

    @property
    def fraction_seen(self) -> float:
        return self.rows_seen / self.n_total if self.n_total else 1.0

    def without(self, dropped: Collection[Hashable]) -> "PhaseSnapshot":
        """The same phase with the ``dropped`` specs removed."""
        keep = np.array([spec not in dropped for spec in self.specs], dtype=bool)
        return PhaseSnapshot(
            self.phase,
            self.n_phases,
            self.rows_seen,
            self.n_total,
            specs=tuple(s for s, k in zip(self.specs, keep) if k),
            normalized=self.normalized[keep],
            weights=self.weights[keep],
            dw=self.dw[keep],
        )


@dataclass(frozen=True)
class PhasedExecutionResult:
    """Outcome of one Algorithm-1 run."""

    ranked: tuple[RatingMap, ...]
    scores: Mapping[RatingMapSpec, ScoredCandidate]
    pruned: tuple[RatingMapSpec, ...]
    phases_run: int

    def top(self, n: int) -> tuple[RatingMap, ...]:
        return self.ranked[:n]


def finalize_from_counts(
    specs: Sequence[RatingMapSpec],
    counts_of: Callable[[RatingMapSpec], np.ndarray],
    labels_of: Callable[[RatingMapSpec], tuple[Any, ...]],
    criteria: SelectionCriteria,
    group_size: int,
    seen: SeenMaps,
    utility_config: UtilityConfig,
    scorer: InterestingnessScorer,
    k_prime: int,
    pruned: Sequence[RatingMapSpec] = (),
    phases_run: int = 1,
    kernel: bool = False,
) -> PhasedExecutionResult:
    """Score and rank candidate maps from their final histogram matrices.

    This is the tail of Algorithm 1 once every phase has run: since the
    ``(n_groups, scale)`` count matrices are sufficient statistics, the
    scoring/ranking step is independent of *how* the counts were obtained
    — a phased scan, a fused candidate cube, or delta maintenance.
    ``counts_of``/``labels_of`` supply each spec's matrix and subgroup
    labels; both the phased executor and :mod:`repro.index` route here.
    ``counts_of`` is called once per spec.

    With ``kernel`` (valid only where ``supports_batch`` holds for the
    configuration behind ``scorer`` and ``utility_config``) every spec is
    one column of a one-candidate family and one
    :func:`~repro.batch.kernel.batch_family_scores` pass gives all raw
    criterion scores, bit for bit those ``scorer`` would give.
    """
    matrices = {spec: counts_of(spec) for spec in specs}
    if kernel:
        family = _kernel_family(
            list(matrices.values()),
            group_size,
            seen_probabilities(seen),
            utility_config,
        )
        raw = {
            spec: family.criterion_scores(0, j)
            for j, spec in enumerate(matrices)
        }
    else:
        seen_pooled = seen.pooled_distributions()
        raw = {
            spec: scorer.score(counts, group_size, seen_pooled)
            for spec, counts in matrices.items()
        }
    dimension_of = {spec: spec.dimension for spec in raw}
    attribute_of = {spec: (spec.side, spec.attribute) for spec in raw}
    final_scores = score_candidate_set(
        raw, dimension_of, seen, utility_config, attribute_of
    )
    order = sorted(
        final_scores,
        key=lambda s: (-final_scores[s].dw_utility, s),
    )
    ranked: list[RatingMap] = []
    for spec in order[:k_prime]:
        rating_map = rating_map_from_counts(
            spec,
            criteria,
            np.array(matrices[spec]),
            labels_of(spec),
            group_size,
        )
        if rating_map.is_informative:
            ranked.append(rating_map)
    return PhasedExecutionResult(
        ranked=tuple(ranked),
        scores=final_scores,
        pruned=tuple(pruned),
        phases_run=phases_run,
    )


def _kernel_family(
    matrices: Sequence[np.ndarray],
    group_size: int,
    seen_probs: "np.ndarray | None",
    utility_config: UtilityConfig,
) -> "FamilyScores":
    """One fused pass: each matrix is a column of a one-candidate family."""
    return batch_family_scores(
        [matrix[None] for matrix in matrices],
        np.array([group_size], dtype=np.int64),
        seen_probs,
        max(1, int(utility_config.min_support)),
        utility_config.global_use_min,
    )


class PhasedExecution:
    """One run of the phase-based framework over a rating group.

    Parameters
    ----------
    group:
        The rating group g_R to summarise.
    specs:
        Candidate rating-map specs (GroupBy attribute × dimension).
    seen:
        The cross-step RM state (dimension weights, global-peculiarity refs).
    utility_config:
        Utility function configuration.
    scorer:
        Raw-criteria scorer (shared across phases).
    n_phases:
        The paper sets n = 10.
    shuffle_seed:
        Seed of the record permutation (``None`` disables shuffling).
    kernel:
        Score with the fused batch kernel instead of ``scorer``.  Only
        valid when ``supports_batch`` holds for the generator
        configuration that built ``scorer`` from ``utility_config``.
    """

    def __init__(
        self,
        group: RatingGroup,
        specs: Sequence[RatingMapSpec],
        seen: SeenMaps,
        utility_config: UtilityConfig,
        scorer: InterestingnessScorer,
        n_phases: int = 10,
        shuffle_seed: int | None = 0,
        kernel: bool = False,
    ) -> None:
        self._group = group
        self._specs = tuple(specs)
        self._seen = seen
        self._config = utility_config
        self._scorer = scorer
        self._n_phases = max(1, int(n_phases))
        self._kernel = kernel
        self._seen_pooled = seen.pooled_distributions()
        self._seen_probs = seen_probabilities(seen)
        dim_weights = dimension_weights(seen.dimension_history(), seen.dimensions)
        self._weight = {
            spec: candidate_weight(
                spec.dimension,
                (spec.side, spec.attribute),
                seen,
                utility_config,
                dim_weights,
            )
            for spec in self._specs
        }

        # Every column in scan order, once: each dimension's score buckets
        # are shared by all attributes, each attribute's codes by all of
        # its dimensions ("Combining Multiple Aggregates").
        database = group.database
        rows = group.rows[self._permutation(len(group), shuffle_seed)]
        by_attribute: dict[tuple, list[str]] = {}
        for spec in self._specs:
            by_attribute.setdefault((spec.side, spec.attribute), []).append(
                spec.dimension
            )
        buckets = {
            dim: score_buckets(database.dimension_scores(dim)[rows], database.scale)
            for dim in dict.fromkeys(spec.dimension for spec in self._specs)
        }
        self._scans: dict[tuple, SharedGroupByScan] = {}
        self._labels: dict[tuple, tuple] = {}
        for (side, attribute), dims in by_attribute.items():
            aligned = database.aligned_grouping(side, attribute)
            self._scans[(side, attribute)] = SharedGroupByScan.over_buckets(
                Grouping(attribute, aligned.codes[rows], aligned.labels),
                {dim: buckets[dim] for dim in dims},
                database.scale,
            )
            self._labels[(side, attribute)] = aligned.labels

        self._active: set[RatingMapSpec] = set(self._specs)
        self._pruned: list[RatingMapSpec] = []
        self._rows_seen = 0

    # -- internals ----------------------------------------------------------
    @staticmethod
    def _permutation(n: int, seed: int | None) -> np.ndarray:
        order = np.arange(n, dtype=np.int64)
        if seed is not None and n > 1:
            np.random.default_rng(seed).shuffle(order)
        return order

    def _counts_of(self, spec: RatingMapSpec) -> np.ndarray:
        scan = self._scans[(spec.side, spec.attribute)]
        return scan.accumulator(spec.dimension).counts

    def _active_specs(self) -> tuple[RatingMapSpec, ...]:
        return tuple(s for s in self._specs if s in self._active)

    def _snapshot(self, phase: int, n_phases: int) -> PhaseSnapshot:
        specs = self._active_specs()
        if not self._kernel:
            raw = {
                spec: self._scorer.score(
                    self._counts_of(spec), len(self._group), self._seen_pooled
                )
                for spec in specs
            }
            scores = score_candidate_set(
                raw,
                {spec: spec.dimension for spec in raw},
                self._seen,
                self._config,
                {spec: (spec.side, spec.attribute) for spec in raw},
            )
            return PhaseSnapshot(
                phase, n_phases, self._rows_seen, len(self._group), scores
            )
        family = _kernel_family(
            [self._counts_of(spec) for spec in specs],
            len(self._group),
            self._seen_probs,
            self._config,
        )
        normalized = batch_family_normalized(family, self._config)
        weights = np.array([self._weight[spec] for spec in specs])
        dw = batch_family_dw(family, weights, self._config, normalized)
        return PhaseSnapshot(
            phase,
            n_phases,
            self._rows_seen,
            len(self._group),
            specs=specs,
            normalized=np.stack([column[0] for column in normalized], axis=1),
            weights=weights,
            dw=dw[0],
        )

    def _drop(self, specs: set[RatingMapSpec]) -> None:
        for spec in specs:
            self._active.discard(spec)
            self._pruned.append(spec)
            # specs are unique, so no active spec needs this pair any more
            self._scans[(spec.side, spec.attribute)].drop_dimension(spec.dimension)

    # -- the algorithm ------------------------------------------------------
    def run(self, pruner: "Pruner", k_prime: int) -> PhasedExecutionResult:
        """Algorithm 1: phased scan with inter-phase pruning.

        ``k_prime`` is k × l, the number of maps to retain.  Returns the
        surviving maps ranked by DW utility (materialised from their final
        histograms) together with their scores.
        """
        pruner.begin(self._specs, k_prime)
        bounds = phase_bounds(len(self._group), self._n_phases)
        n_slices = len(bounds) - 1
        wants_snapshots = getattr(pruner, "needs_snapshots", True)
        phases_run = 0
        for i in range(n_slices):
            with obs_span("phase.scan", phase=i + 1, n_phases=n_slices) as sp:
                block = slice(int(bounds[i]), int(bounds[i + 1]))
                for scan in self._scans.values():
                    # cooperative cancellation: an oversized request aborts
                    # between GroupBy scans instead of hogging its worker
                    check_deadline()
                    scan.update(block)
                self._rows_seen += block.stop - block.start
                phases_run += 1
                # no pruning after the last phase, once k' remain, or for a
                # pruner that never looks (NoPruning skips the scoring)
                if (
                    i < n_slices - 1
                    and len(self._active) > k_prime
                    and wants_snapshots
                ):
                    to_drop = pruner.prune(self._snapshot(i + 1, n_slices))
                    self._drop(to_drop & self._active)
                sp.set(
                    rows_seen=self._rows_seen,
                    active=len(self._active),
                    pruned=len(self._pruned),
                )

        return finalize_from_counts(
            self._active_specs(),
            self._counts_of,
            lambda spec: self._labels[(spec.side, spec.attribute)],
            self._group.criteria,
            len(self._group),
            self._seen,
            self._config,
            self._scorer,
            k_prime,
            pruned=self._pruned,
            phases_run=phases_run,
            kernel=self._kernel,
        )
