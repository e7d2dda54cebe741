"""RM-Set Generator (paper §4.2): RM-Generator + RM-Selector.

``RMSetGenerator.generate`` answers Problem 1 for one rating group: run the
phased framework (Algorithm 1) with the configured pruner to obtain, w.h.p.,
the top k × l rating maps by DW utility, then select the k most diverse
with GMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..batch.scoring import supports_batch
from ..exceptions import ConfigurationError
from ..model.groups import RatingGroup, SelectionCriteria
from ..obs import span as obs_span
from ..resilience.gate import under_pressure
from .distance import MapDistanceMethod, min_pairwise_distance
from .interestingness import InterestingnessScorer
from .phases import PhasedExecution, PhasedExecutionResult, finalize_from_counts
from .pruning import PruningStrategy, make_pruner
from .rating_maps import RatingMap, RatingMapSpec, enumerate_map_specs
from .selection import select_diverse_maps
from .utility import ScoredCandidate, SeenMaps, UtilityConfig

__all__ = ["GeneratorConfig", "RMSetResult", "RMSetGenerator"]


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the RM-Set Generator.

    Defaults follow the paper's Table 3 (k = 3, l = 3) and §4.2.1 (n = 10
    phases); the full SubDEx configuration combines both pruning schemes.
    """

    k: int = 3
    pruning_diversity_factor: int = 3  # l
    n_phases: int = 10
    pruning: PruningStrategy = PruningStrategy.COMBINED
    delta: float = 0.05
    distance_method: MapDistanceMethod = MapDistanceMethod.PROFILE
    utility: UtilityConfig = field(default_factory=UtilityConfig)
    shuffle_seed: int | None = 0
    #: Table 5/6's "Diversity-Only" arm: ignore utility entirely — the pool
    #: is every informative candidate map in spec order and GMM alone picks
    #: the k to display.
    diversity_only: bool = False

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ConfigurationError(f"k must be positive, got {self.k}")
        if self.pruning_diversity_factor < 1:
            raise ConfigurationError(
                f"l must be >= 1, got {self.pruning_diversity_factor}"
            )
        if self.n_phases < 1:
            raise ConfigurationError(
                f"n_phases must be >= 1, got {self.n_phases}"
            )

    @property
    def k_prime(self) -> int:
        """k' = k × l, the size of the utility-ranked candidate pool."""
        return self.k * self.pruning_diversity_factor


@dataclass(frozen=True)
class RMSetResult:
    """One step's rating maps: the k selected and the k × l pool behind them."""

    selected: tuple[RatingMap, ...]
    pool: tuple[RatingMap, ...]
    scores: Mapping[RatingMapSpec, ScoredCandidate]
    diversity: float
    pruned: tuple[RatingMapSpec, ...]
    #: True when the result came from a degraded path (load shedding: the
    #: diversity GMM pass was skipped, or a stale cached result was reused).
    degraded: bool = False

    def dw_utility(self, rating_map: RatingMap) -> float:
        """DW utility of one of this step's maps."""
        return self.scores[rating_map.spec].dw_utility

    def total_utility(self) -> float:
        """Σ DW utilities of the selected maps — u(q, RM) of Eq. (2)."""
        return sum(self.dw_utility(rm) for rm in self.selected)

    def selected_attributes(self) -> tuple[str, ...]:
        return tuple(rm.spec.attribute for rm in self.selected)

    def selected_dimensions(self) -> tuple[str, ...]:
        return tuple(rm.dimension for rm in self.selected)


class RMSetGenerator:
    """Generates the diverse k-set of high-utility rating maps per step."""

    def __init__(self, config: GeneratorConfig | None = None) -> None:
        self._config = config or GeneratorConfig()
        self._scorer = InterestingnessScorer(
            dispersion=self._config.utility.dispersion,
            peculiarity=self._config.utility.peculiarity,
            global_use_min=self._config.utility.global_use_min,
            min_support=self._config.utility.min_support,
        )

    @property
    def config(self) -> GeneratorConfig:
        return self._config

    def generate(
        self,
        group: RatingGroup,
        seen: SeenMaps,
        dimensions: Sequence[str] | None = None,
        k: int | None = None,
    ) -> RMSetResult:
        """Solve Problem 1 for ``group`` given the cross-step state ``seen``."""
        config = self._config
        k = config.k if k is None else k
        specs = tuple(
            enumerate_map_specs(group.database, group.criteria, dimensions)
        )
        if group.is_empty or not specs:
            return RMSetResult((), (), {}, 0.0, ())
        with obs_span(
            "engine.generate", group_size=len(group), n_specs=len(specs), k=k
        ):
            execution = PhasedExecution(
                group,
                specs,
                seen,
                config.utility,
                self._scorer,
                n_phases=config.n_phases,
                shuffle_seed=config.shuffle_seed,
                kernel=supports_batch(config),
            )
            if config.diversity_only:
                # keep every candidate: the selector alone decides
                pruner = make_pruner(PruningStrategy.NONE, config.delta)
                outcome = execution.run(pruner, len(specs))
                ranked = tuple(sorted(outcome.ranked, key=lambda rm: rm.spec))
                outcome = replace(outcome, ranked=ranked)
            else:
                pruner = make_pruner(config.pruning, config.delta)
                outcome = execution.run(pruner, k * config.pruning_diversity_factor)
            return self._finish(outcome, k)

    def generate_from_counts(
        self,
        criteria: SelectionCriteria,
        specs: Sequence[RatingMapSpec],
        counts_of: Callable[[RatingMapSpec], "np.ndarray"],
        labels_of: Callable[[RatingMapSpec], tuple[Any, ...]],
        group_size: int,
        seen: SeenMaps,
        k: int | None = None,
    ) -> RMSetResult:
        """Problem 1 from precomputed histograms (the index fast path).

        Produces exactly what :meth:`generate` produces for a group holding
        the same records when run with one phase and no pruning (the
        Recommendation Builder's preview configuration): the count matrices
        are sufficient statistics, and scoring/selection read nothing else
        from the group.  Configurations the batch kernel covers score every
        spec in one kernel pass (see
        :func:`~repro.core.phases.finalize_from_counts`).
        """
        config = self._config
        k = config.k if k is None else k
        specs = tuple(specs)
        if group_size == 0 or not specs:
            return RMSetResult((), (), {}, 0.0, ())
        k_prime = len(specs) if config.diversity_only else k * config.pruning_diversity_factor
        outcome = finalize_from_counts(
            specs,
            counts_of,
            labels_of,
            criteria,
            group_size,
            seen,
            config.utility,
            self._scorer,
            k_prime,
            kernel=supports_batch(config),
        )
        if config.diversity_only:
            ranked = tuple(sorted(outcome.ranked, key=lambda rm: rm.spec))
            outcome = replace(outcome, ranked=ranked)
        return self._finish(outcome, k)

    def _finish(self, outcome: PhasedExecutionResult, k: int) -> RMSetResult:
        """Shared RM-Selector tail: pressure degradation or diverse top-k."""
        config = self._config
        if not outcome.ranked:
            return RMSetResult((), (), outcome.scores, 0.0, outcome.pruned)
        if under_pressure() and not config.diversity_only:
            # graceful degradation: skip the GMM pass and show the plain
            # top-k by utility (the l = 1 degenerate selection), flagged so
            # the serving layer can tell the client the answer is degraded
            selected = outcome.ranked[:k]
            return RMSetResult(
                selected=selected,
                pool=outcome.ranked,
                scores=outcome.scores,
                diversity=min_pairwise_distance(
                    selected, config.distance_method
                ),
                pruned=outcome.pruned,
                degraded=True,
            )
        selection = select_diverse_maps(
            outcome.ranked, k, config.distance_method
        )
        return RMSetResult(
            selected=selection.selected,
            pool=outcome.ranked,
            scores=outcome.scores,
            diversity=selection.diversity,
            pruned=outcome.pruned,
        )
