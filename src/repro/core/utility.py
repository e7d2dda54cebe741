"""Utility and dimension-weighted utility of rating maps (paper §3.2.3).

``u(rm, RM) = max(Conc, Agr, Pec_self, Pec_global)`` over *normalised*
criterion scores, and the dimension-weighted score of Eq. (1):

.. math::
    \\widehat{u}(rm_{r_i}, RM) = (1 - m_{r_i}/m) \\cdot u(rm_{r_i}, RM)

:func:`get_weights` is the paper's Algorithm 2 and returns the per-dimension
*frequencies* ``m_{r_i}/m``; the multiplicative weight applied to utilities
is ``1 − frequency`` (Eq. 1) — rarely-shown dimensions are promoted.

:class:`SeenMaps` is the cross-step state RM: which dimensions were shown,
plus the pooled distribution of each seen map (needed by global
peculiarity).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence, TypeVar

from .distributions import RatingDistribution
from .interestingness import (
    Criterion,
    CriterionScores,
    DispersionMeasure,
    PeculiarityDistance,
)
from .normalization import (
    NormalizationStrategy,
    conciseness_01,
    minmax_normalize,
)

if TYPE_CHECKING:  # pragma: no cover
    from .rating_maps import RatingMap

__all__ = [
    "UtilityAggregation",
    "UtilityConfig",
    "SeenMaps",
    "ScoredCandidate",
    "get_weights",
    "dimension_weights",
    "normalize_criteria",
    "aggregate_utility",
    "score_candidate_set",
    "candidate_weight",
]

K = TypeVar("K", bound=Hashable)

ALL_CRITERIA: tuple[Criterion, ...] = (
    Criterion.CONCISENESS,
    Criterion.AGREEMENT,
    Criterion.PECULIARITY_SELF,
    Criterion.PECULIARITY_GLOBAL,
)


class UtilityAggregation(str, enum.Enum):
    """How per-criterion scores combine into a utility (max in the paper)."""

    MAX = "max"
    AVG = "avg"


@dataclass(frozen=True)
class UtilityConfig:
    """Configuration of the utility function.

    Defaults reproduce the paper's prototype (§4.1).  The other values are
    the paper's stated alternatives, exercised by the ablation benches.
    """

    criteria: tuple[Criterion, ...] = ALL_CRITERIA
    aggregation: UtilityAggregation = UtilityAggregation.MAX
    dispersion: DispersionMeasure = DispersionMeasure.STD
    peculiarity: PeculiarityDistance = PeculiarityDistance.TOTAL_VARIATION
    #: aggregate per-seen-map peculiarity distances with min (novelty =
    #: distance to the *closest* seen map).  The paper's text says max, but
    #: max saturates once a handful of diverse maps has been shown (every
    #: candidate is then far from *some* seen map) and multi-step diversity
    #: — which the paper demonstrates working — collapses; min is the
    #: reading that produces the demonstrated behaviour.  Set True→False to
    #: ablate (see bench_ablation_utility_criteria).
    global_use_min: bool = True
    normalization: NormalizationStrategy = NormalizationStrategy.SQUASH
    use_dimension_weights: bool = True
    #: also weight by grouping-attribute display frequency — the natural
    #: generalisation of Eq. (1) from rating dimensions to grouping
    #: attributes (need N2 applied to the other axis of a rating map).
    #: Without it the engine keeps re-showing the few highest-utility
    #: attributes across steps; Table 5's "more attributes seen" behaviour
    #: needs the rotation.  Ablatable.
    use_attribute_weights: bool = True
    min_support: int = 5
    #: agreement of a maximum-entropy (uniform) rating map — the SQUASH
    #: normalisation measures agreement *above* this baseline, otherwise
    #: every map scores ≈0.6 and agreement drowns the other criteria.
    #: 1 / (1 + σ_uniform) with σ_uniform = sqrt((m²−1)/12) ≈ 1.414 for m=5.
    agreement_floor: float = 0.414

    def __post_init__(self) -> None:
        if not self.criteria:
            raise ValueError("at least one utility criterion is required")


class SeenMaps:
    """The set RM of rating maps the user has seen so far (paper notation).

    Tracks per-dimension display counts (Algorithm 2's input) and the pooled
    distribution of each seen map (global peculiarity's references).
    """

    def __init__(
        self, dimensions: Sequence[str], n_attributes: int | None = None
    ) -> None:
        self._dimensions = tuple(dimensions)
        self._counts: dict[str, int] = {d: 0 for d in self._dimensions}
        self._pooled: list[RatingDistribution] = []
        self._pooled_dims: list[str] = []
        self._attribute_counts: dict[Hashable, int] = {}
        self._n_attributes = n_attributes

    @property
    def dimensions(self) -> tuple[str, ...]:
        return self._dimensions

    @property
    def total(self) -> int:
        """m = |RM|."""
        return sum(self._counts.values())

    def count_for(self, dimension: str) -> int:
        """m_{r_i} — maps seen for ``dimension``."""
        return self._counts[dimension]

    def pooled_distributions(self) -> tuple[RatingDistribution, ...]:
        return tuple(self._pooled)

    def dimension_history(self) -> tuple[str, ...]:
        """Dimensions of seen maps, in display order."""
        return tuple(self._pooled_dims)

    def add(self, rating_map: "RatingMap") -> None:
        """Record that the user was shown ``rating_map``."""
        dimension = rating_map.dimension
        if dimension not in self._counts:
            raise KeyError(f"unknown rating dimension {dimension!r}")
        self._counts[dimension] += 1
        self._pooled.append(rating_map.pooled())
        self._pooled_dims.append(dimension)
        key = (rating_map.spec.side, rating_map.spec.attribute)
        self._attribute_counts[key] = self._attribute_counts.get(key, 0) + 1

    def attribute_weight(self, key: Hashable) -> float:
        """Smoothed Eq.-(1)-style weight for the grouping attribute:
        ``1 − count / (m + A)`` with A the attribute-domain size.

        The additive smoothing keeps the rotation *soft*, especially in
        early steps: after one step (m = 3) an un-smoothed weight would
        already demote a twice-shown attribute by 2/3, scrambling the
        ranking before any real repetition has occurred.  With smoothing,
        demotion accrues gradually over a session; an attribute with a
        genuinely strong signal can still be re-shown under a new
        selection.
        """
        m = self.total
        if m == 0:
            return 1.0
        base = (
            self._n_attributes
            if self._n_attributes is not None
            else max(8, len(self._attribute_counts))
        )
        smoothing = max(2, base // 2)
        return 1.0 - self._attribute_counts.get(key, 0) / (m + smoothing)

    def frequencies(self) -> dict[str, float]:
        """Algorithm 2: per-dimension frequencies ``m_{r_i} / m``."""
        return get_weights(self._pooled_dims, self._dimensions)

    def weight(self, dimension: str) -> float:
        """The multiplicative DW weight ``1 − m_{r_i}/m`` of Eq. (1)."""
        return dimension_weights(self._pooled_dims, self._dimensions)[dimension]


def get_weights(
    seen_dimensions: Sequence[str], all_dimensions: Sequence[str]
) -> dict[str, float]:
    """Algorithm 2 (getWeights): frequency of each dimension among seen maps.

    With no maps seen yet every frequency is 0.
    """
    counts = {d: 0 for d in all_dimensions}
    for dimension in seen_dimensions:
        if dimension not in counts:
            raise KeyError(f"unknown rating dimension {dimension!r}")
        counts[dimension] += 1
    m = len(seen_dimensions)
    if m == 0:
        return {d: 0.0 for d in all_dimensions}
    return {d: counts[d] / m for d in all_dimensions}


def dimension_weights(
    seen_dimensions: Sequence[str], all_dimensions: Sequence[str]
) -> dict[str, float]:
    """Eq. (1) weights ``1 − m_{r_i}/m`` (all 1.0 before anything is seen).

    A single-dimension database (e.g. MovieLens) would degenerate to
    weight 0 for every map after the first step — there is nothing to
    balance, so the weight stays 1.
    """
    if len(all_dimensions) <= 1:
        return {d: 1.0 for d in all_dimensions}
    return {
        d: 1.0 - f for d, f in get_weights(seen_dimensions, all_dimensions).items()
    }


def normalize_criteria(
    raw: Mapping[K, CriterionScores], config: UtilityConfig
) -> dict[K, dict[Criterion, float]]:
    """Normalise raw criterion scores across a candidate set.

    MINMAX normalises each criterion over the candidates (the rule of [51]
    — strongest within-step contrast, but scores are only comparable inside
    one candidate set).  SQUASH (default) maps each candidate independently
    onto an absolute [0, 1] scale — conciseness via the scale-free
    :func:`~repro.core.normalization.conciseness_01`, the inherently
    bounded criteria clipped — so that Eq. (2) can compare operation
    utilities across different rating groups.
    """
    keys = list(raw)
    out: dict[K, dict[Criterion, float]] = {k: {} for k in keys}
    for criterion in config.criteria:
        values = {k: raw[k].get(criterion) for k in keys}
        if config.normalization is NormalizationStrategy.MINMAX:
            normalized = minmax_normalize(values)
        else:
            normalized = {}
            for k, value in values.items():
                if criterion is Criterion.CONCISENESS:
                    normalized[k] = conciseness_01(raw[k].n_subgroups)
                elif criterion is Criterion.AGREEMENT:
                    floor = config.agreement_floor
                    rescaled = (value - floor) / (1.0 - floor)
                    normalized[k] = min(max(rescaled, 0.0), 1.0)
                else:
                    normalized[k] = min(max(value, 0.0), 1.0)
        for k in keys:
            out[k][criterion] = normalized[k]
    return out


def aggregate_utility(
    normalized: Mapping[Criterion, float], config: UtilityConfig
) -> float:
    """``u(rm, RM)``: max (default) or average of the normalised criteria."""
    values = [normalized[c] for c in config.criteria]
    if config.aggregation is UtilityAggregation.MAX:
        return max(values)
    return sum(values) / len(values)


@dataclass(frozen=True)
class ScoredCandidate:
    """Scores of one candidate map: raw, normalised, utility, DW utility."""

    raw: CriterionScores
    normalized: dict[Criterion, float] = field(compare=False)
    utility: float = 0.0
    weight: float = 1.0

    @property
    def dw_utility(self) -> float:
        """The dimension-weighted utility ``(1 − m_{r_i}/m) · u`` of Eq. (1)."""
        return self.weight * self.utility


def score_candidate_set(
    raw: Mapping[K, CriterionScores],
    dimension_of: Mapping[K, str],
    seen: SeenMaps,
    config: UtilityConfig,
    attribute_of: Mapping[K, Hashable] | None = None,
) -> dict[K, ScoredCandidate]:
    """Full scoring pipeline for a candidate set.

    raw scores → normalisation across candidates → utility aggregation →
    DW weighting by the candidate's rating dimension (Eq. 1) and, when
    enabled, by its grouping attribute (the attribute-axis analogue).
    """
    normalized = normalize_criteria(raw, config)
    weights = dimension_weights(seen.dimension_history(), seen.dimensions)
    out: dict[K, ScoredCandidate] = {}
    for key, criteria in normalized.items():
        utility = aggregate_utility(criteria, config)
        weight = candidate_weight(
            dimension_of[key],
            None if attribute_of is None else attribute_of[key],
            seen,
            config,
            weights,
        )
        out[key] = ScoredCandidate(raw[key], criteria, utility, weight)
    return out


def candidate_weight(
    dimension: str,
    attribute: Hashable | None,
    seen: SeenMaps,
    config: UtilityConfig,
    weights: Mapping[str, float],
) -> float:
    """A candidate map's multiplicative DW weight.

    The Eq.-(1) weight of its rating ``dimension`` (``weights`` is
    :func:`dimension_weights` of ``seen``) times, when enabled and an
    ``attribute`` key is given, its grouping attribute's weight.
    """
    weight = weights[dimension] if config.use_dimension_weights else 1.0
    if config.use_attribute_weights and attribute is not None:
        weight *= seen.attribute_weight(attribute)
    return weight
