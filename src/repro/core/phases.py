"""Phase-based execution framework (paper Algorithm 1).

The framework materialises all candidate rating maps of a rating group
incrementally: the group's records are split into ``n`` near-equal fractions
and each phase adds one fraction to every candidate's histogram.  Between
phases a pluggable pruner (see :mod:`repro.core.pruning`) inspects the
partial scores and discards low-utility candidates, so later phases score
fewer of them.

Records are processed in a seeded random permutation so the
Hoeffding–Serfling assumptions (uniform sampling without replacement) hold
regardless of the physical row order of the rating table.  The counts come
from the group's :class:`~repro.index.cubes.StepSlices`: the permutation is
one phase label per row, and every phase's histograms of an attribute are
one ``bincount`` per dimension keyed by (phase, code, bucket) and a
``cumsum`` (:meth:`~repro.index.cubes.StepSlices.phase_counts`), so phase
``i`` reads row ``i`` of each candidate's cumulative counts.  An index
keeps the root's slices, so the root's phases are counted once per engine.
Counting is one pass per attribute whatever the pruner drops: pruning saves
snapshot scoring, which is most of a phased run, not counting.

Between phases the active specs are scored as arrays: every active spec
is one column of a single-candidate family, and one
:func:`~repro.batch.kernel.batch_family_scores` call scores them all under
any utility configuration, bitwise-equal to the reference scorer.
:func:`finalize_from_counts` scores the final phase's survivors the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Collection, Hashable, Mapping, Sequence

import numpy as np

from ..batch.kernel import (
    FamilyScores,
    SeenPooled,
    batch_family_dw,
    batch_family_normalized,
    batch_family_scores,
)
from ..db.groupby import phase_bounds
from ..index.cubes import StepSlices
from ..model.groups import RatingGroup, SelectionCriteria
from ..obs import span as obs_span
from ..resilience.deadline import check_deadline
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
    (the arrays are then derived from it, in mapping order) — the form
    the pruner tests build by hand.
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
    k_prime: int,
    pruned: Sequence[RatingMapSpec] = (),
    phases_run: int = 1,
) -> PhasedExecutionResult:
    """Score and rank candidate maps from their final histogram matrices.

    This is the tail of Algorithm 1 once every phase has run: since the
    ``(n_groups, scale)`` count matrices are sufficient statistics, the
    scoring/ranking step is independent of *how* the counts were obtained
    — a phased scan, a fused candidate cube, or delta maintenance.
    ``counts_of``/``labels_of`` supply each spec's matrix and subgroup
    labels; both the phased executor and :mod:`repro.index` route here.
    ``counts_of`` is called once per spec.

    Every spec is one column of a one-candidate family, and one
    :func:`~repro.batch.kernel.batch_family_scores` pass gives all raw
    criterion scores.
    """
    matrices = {spec: counts_of(spec) for spec in specs}
    family = _kernel_family(
        list(matrices.values()), group_size, SeenPooled.of(seen), utility_config
    )
    raw = {
        spec: family.criterion_scores(0, j) for j, spec in enumerate(matrices)
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
    seen: SeenPooled,
    utility_config: UtilityConfig,
) -> FamilyScores:
    """One fused pass: each matrix is a column of a one-candidate family."""
    return batch_family_scores(
        [matrix[None] for matrix in matrices],
        np.array([group_size], dtype=np.int64),
        seen,
        utility_config,
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
    n_phases:
        The paper sets n = 10.
    shuffle_seed:
        Seed of the record permutation (``None`` disables shuffling).
    slices:
        The group's scan state, whose phase counts the run reads: an
        index's :meth:`~repro.index.facade.IndexedDatabase.step_slices`
        (kept for the root), or by default fresh slices over the group.
    """

    def __init__(
        self,
        group: RatingGroup,
        specs: Sequence[RatingMapSpec],
        seen: SeenMaps,
        utility_config: UtilityConfig,
        n_phases: int = 10,
        shuffle_seed: int | None = 0,
        slices: StepSlices | None = None,
    ) -> None:
        self._group = group
        self._specs = tuple(specs)
        self._seen = seen
        self._config = utility_config
        self._n_phases = max(1, int(n_phases))
        self._shuffle_seed = shuffle_seed
        self._slices = (
            StepSlices(group.database, group.rows) if slices is None else slices
        )
        self._seen_pooled = SeenPooled.of(seen)
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
        #: spec → its (n_slices, n_groups, scale) cumulative phase counts
        self._cumulative: dict[RatingMapSpec, np.ndarray] = {}
        self._phase = 0
        self._active: set[RatingMapSpec] = set(self._specs)
        self._pruned: list[RatingMapSpec] = []
        self._rows_seen = 0

    # -- internals ----------------------------------------------------------
    def _counts_of(self, spec: RatingMapSpec) -> np.ndarray:
        return self._cumulative[spec][self._phase]

    def _active_specs(self) -> tuple[RatingMapSpec, ...]:
        return tuple(s for s in self._specs if s in self._active)

    def _snapshot(self, phase: int, n_phases: int) -> PhaseSnapshot:
        specs = self._active_specs()
        family = _kernel_family(
            [self._counts_of(spec) for spec in specs],
            len(self._group),
            self._seen_pooled,
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

    # -- the algorithm ------------------------------------------------------
    def run(self, pruner: "Pruner", k_prime: int) -> PhasedExecutionResult:
        """Algorithm 1: phased scan with inter-phase pruning.

        ``k_prime`` is k × l, the number of maps to retain.  Returns the
        surviving maps ranked by DW utility (materialised from their final
        histograms) together with their scores.
        """
        pruner.begin(self._specs, k_prime)
        with obs_span("phase.count", n_specs=len(self._specs)):
            for spec in self._specs:
                # cooperative cancellation: an oversized request aborts
                # between attributes instead of hogging its worker
                check_deadline()
                self._cumulative[spec] = self._slices.phase_counts(
                    spec, self._n_phases, self._shuffle_seed
                )
        bounds = phase_bounds(len(self._group), self._n_phases)
        n_slices = len(bounds) - 1
        wants_snapshots = getattr(pruner, "needs_snapshots", True)
        for i in range(n_slices):
            with obs_span("phase.scan", phase=i + 1, n_phases=n_slices) as sp:
                self._phase = i
                self._rows_seen = int(bounds[i + 1])
                # no pruning after the last phase, once k' remain, or for a
                # pruner that never looks (NoPruning skips the scoring)
                if (
                    i < n_slices - 1
                    and len(self._active) > k_prime
                    and wants_snapshots
                ):
                    dropped = pruner.prune(self._snapshot(i + 1, n_slices))
                    dropped &= self._active
                    self._active -= dropped
                    self._pruned.extend(dropped)
                sp.set(
                    rows_seen=self._rows_seen,
                    active=len(self._active),
                    pruned=len(self._pruned),
                )

        return finalize_from_counts(
            self._active_specs(),
            self._counts_of,
            lambda spec: self._slices.labels(spec.side, spec.attribute),
            self._group.criteria,
            len(self._group),
            self._seen,
            self._config,
            k_prime,
            pruned=self._pruned,
            phases_run=n_slices,
        )
