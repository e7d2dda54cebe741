"""Interestingness criteria of rating maps (paper §3.2.3 and §4.1).

The four criteria, computed from a per-subgroup histogram matrix (so they
work identically on full data and on the phased framework's partial data):

* **Conciseness** — compaction gain ``|g_R| / |rm|`` [15]: how many records
  each subgroup summarises on average.
* **Agreement** — ``1 / (1 + σ̃)`` where σ̃ is the mean subgroup dispersion
  [16]; the dispersion measure is configurable (SD default; Schutz and
  MacArthur per Hilderman & Hamilton).
* **Self peculiarity** — the max over subgroups of the distance between the
  subgroup's distribution and the map's overall distribution ([51]'s
  max-of-subgroup-scores rule).
* **Global peculiarity** — the max distance between the map's pooled
  distribution and the pooled distribution of each previously seen map.

The peculiarity distance is total variation by default, with KL divergence
and the Outlier Function as the paper's stated alternatives.  A map with
fewer than two supported subgroups is uninformative: every criterion
scores 0.

Note on global peculiarity: this scorer's *default* aggregation over seen
maps is the paper's ``max``; the engine's default configuration
(:class:`~repro.core.utility.UtilityConfig`) flips it to ``min`` (distance
to the closest seen map) because max saturates after a few steps — see
EXPERIMENTS.md for the rationale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..stats.dispersion import histogram_std, macarthur_index, schutz_coefficient
from .distance import kl_divergence, total_variation
from .distributions import RatingDistribution


def outlier_distance(p: "RatingDistribution", q: "RatingDistribution") -> float:
    """Outlier-function peculiarity [39]: normalised mean-score gap ∈ [0, 1]."""
    if p.scale != q.scale:
        raise ValueError("distributions must share a scale")
    mean_p, mean_q = p.mean(), q.mean()
    if math.isnan(mean_p) or math.isnan(mean_q):
        return 0.0
    return abs(mean_p - mean_q) / (p.scale - 1)

__all__ = [
    "Criterion",
    "outlier_distance",
    "noise_penalty",
    "rows_agreement",
    "rows_self_peculiarity",
    "rows_global_peculiarity",
    "DispersionMeasure",
    "PeculiarityDistance",
    "CriterionScores",
    "InterestingnessScorer",
]


class Criterion(str, enum.Enum):
    """The four utility criteria."""

    CONCISENESS = "conciseness"
    AGREEMENT = "agreement"
    PECULIARITY_SELF = "pec_self"
    PECULIARITY_GLOBAL = "pec_global"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class DispersionMeasure(str, enum.Enum):
    """Dispersion measure underlying the agreement score."""

    STD = "std"
    SCHUTZ = "schutz"
    MACARTHUR = "macarthur"


class PeculiarityDistance(str, enum.Enum):
    """Distance underlying the peculiarity scores.

    TVD is the prototype's choice (§4.1); KL and the Outlier Function of
    the Subjective Databases paper [39] are the stated alternatives.  The
    outlier function compares the *means*: the absolute gap between the two
    distributions' average scores, normalised by the scale range — blunter
    than TVD (shape-blind) but directly interpretable on the rating scale.
    """

    TOTAL_VARIATION = "tvd"
    KL = "kl"
    OUTLIER = "outlier"


_DISPERSION_FN: dict[DispersionMeasure, Callable[[np.ndarray], float]] = {
    DispersionMeasure.STD: histogram_std,
    DispersionMeasure.SCHUTZ: schutz_coefficient,
    DispersionMeasure.MACARTHUR: macarthur_index,
}


_DISTANCE_FN: dict[
    PeculiarityDistance,
    Callable[[RatingDistribution, RatingDistribution], float],
] = {
    PeculiarityDistance.TOTAL_VARIATION: total_variation,
    PeculiarityDistance.KL: kl_divergence,
    PeculiarityDistance.OUTLIER: outlier_distance,
}


def noise_penalty(n: float, scale: int) -> float:
    """Expected sampling noise of an n-record distribution's distance.

    An n-sample empirical distribution over m cells sits at an expected
    total-variation distance of order ``sqrt(m / (8n))`` from its source
    even when nothing is peculiar about it; subtracting this keeps
    peculiarity from systematically inflating in small subgroups (where it
    would otherwise pull exploration into noise-chasing drill-downs).
    """
    if n <= 0:
        return 1.0
    return math.sqrt(scale / (8.0 * n))


def rows_agreement(
    rows: np.ndarray, dispersion: Callable[[np.ndarray], float]
) -> float:
    """``1 / (1 + σ̃)`` with σ̃ the size-weighted mean row dispersion.

    ``rows`` are a map's supported subgroups (at least two), so larger
    subgroups weigh more: a 3-record unanimous subgroup cannot drag σ̃ to
    0 and hand the map a perfect agreement score.
    """
    values = []
    weights = []
    for row in rows:
        v = dispersion(row)
        if not math.isnan(v):
            values.append(v)
            weights.append(row.sum())
    if not values:
        return 0.0
    sigma = float(np.average(values, weights=weights))
    return 1.0 / (1.0 + sigma)


def rows_self_peculiarity(
    rows: np.ndarray,
    distance: Callable[[RatingDistribution, RatingDistribution], float],
) -> float:
    """Max over ``rows`` (a map's supported subgroups) of their distance to
    the rows' pooled distribution, less each row's noise penalty.

    The support floor behind ``rows`` (default 5 = the paper's minimum
    irregular-group size) keeps two-record subgroups, which are always
    extreme, from pinning every map's peculiarity at the top.
    """
    pooled = RatingDistribution(np.sum(rows, axis=0).astype(np.int64))
    return max(
        max(
            0.0,
            distance(RatingDistribution(row.astype(np.int64)), pooled)
            - noise_penalty(float(row.sum()), rows.shape[1]),
        )
        for row in rows
    )


def rows_global_peculiarity(
    rows: np.ndarray,
    seen_pooled: Sequence[RatingDistribution],
    distance: Callable[[RatingDistribution, RatingDistribution], float],
    use_min: bool,
) -> float:
    """Distance between the pooled ``rows`` and the seen maps' pooled
    distributions (at least one), less the pooled noise penalty.

    The paper aggregates per-seen-map distances with ``max``; ``use_min``
    switches to the stricter ``min`` (distance to the *closest* seen map).
    """
    pooled_counts = np.sum(rows, axis=0)
    pooled = RatingDistribution(pooled_counts.astype(np.int64))
    distances = [distance(pooled, q) for q in seen_pooled]
    best = min(distances) if use_min else max(distances)
    return max(
        0.0,
        best - noise_penalty(float(pooled_counts.sum()), rows.shape[1]),
    )


@dataclass(frozen=True, slots=True)
class CriterionScores:
    """Raw (pre-normalization) criterion scores of one rating map.

    ``n_subgroups`` (non-empty subgroups) rides along so the fixed
    normalization can derive a scale-free conciseness.
    """

    conciseness: float
    agreement: float
    pec_self: float
    pec_global: float
    n_subgroups: int = 0

    def get(self, criterion: Criterion) -> float:
        return {
            Criterion.CONCISENESS: self.conciseness,
            Criterion.AGREEMENT: self.agreement,
            Criterion.PECULIARITY_SELF: self.pec_self,
            Criterion.PECULIARITY_GLOBAL: self.pec_global,
        }[criterion]

    @classmethod
    def zero(cls) -> "CriterionScores":
        return cls(0.0, 0.0, 0.0, 0.0, 0)


class InterestingnessScorer:
    """Computes raw criterion scores from per-subgroup histogram matrices."""

    def __init__(
        self,
        dispersion: DispersionMeasure = DispersionMeasure.STD,
        peculiarity: PeculiarityDistance = PeculiarityDistance.TOTAL_VARIATION,
        global_use_min: bool = False,
        min_support: int = 5,
    ) -> None:
        self._dispersion_fn = _DISPERSION_FN[dispersion]
        self._distance_fn = _DISTANCE_FN[peculiarity]
        self._fast = (
            dispersion is DispersionMeasure.STD
            and peculiarity is PeculiarityDistance.TOTAL_VARIATION
        )
        self._global_use_min = global_use_min
        # every criterion needs a support floor or 2-record subgroups
        # dominate; 5 matches the paper's minimum irregular-group size, so
        # planted anomalies always stay above it
        self._min_support = max(1, int(min_support))

    def _supported(self, counts: np.ndarray, group_size: int) -> np.ndarray:
        """The rows of ``counts`` that reach the (phase-scaled) support."""
        support = self._effective_support(counts, group_size)
        return counts[counts.sum(axis=1) >= support]

    def _effective_support(self, counts: np.ndarray, group_size: int) -> int:
        """The support floor, scaled down for partial (phased) data.

        ``min_support`` is meant against full data; during early phases a
        subgroup has only seen a fraction of its records, so the floor
        shrinks proportionally (never below 2).
        """
        seen = float(counts.sum())
        if group_size <= 0:
            return self._min_support
        fraction = min(1.0, seen / group_size)
        return max(2, int(math.ceil(self._min_support * fraction)))

    # -- per-criterion ------------------------------------------------------
    def conciseness(self, counts: np.ndarray, group_size: int) -> float:
        """Compaction gain ``|g_R| / |rm|`` over supported subgroups."""
        n_subgroups = len(self._supported(counts, group_size))
        if n_subgroups < 2:
            return 0.0
        return group_size / n_subgroups

    def agreement(self, counts: np.ndarray, group_size: int | None = None) -> float:
        """See :func:`rows_agreement` (over the supported subgroups)."""
        if group_size is None:
            group_size = int(counts.sum())
        rows = self._supported(counts, group_size)
        if len(rows) < 2:
            return 0.0
        return rows_agreement(rows, self._dispersion_fn)

    def self_peculiarity(
        self, counts: np.ndarray, group_size: int | None = None
    ) -> float:
        """See :func:`rows_self_peculiarity` (over the supported subgroups)."""
        if group_size is None:
            group_size = int(counts.sum())
        rows = self._supported(counts, group_size)
        if len(rows) < 2:
            return 0.0
        return rows_self_peculiarity(rows, self._distance_fn)

    def global_peculiarity(
        self,
        counts: np.ndarray,
        seen_pooled: Sequence[RatingDistribution],
        group_size: int | None = None,
    ) -> float:
        """See :func:`rows_global_peculiarity` (over the supported subgroups)."""
        if group_size is None:
            group_size = int(counts.sum())
        rows = self._supported(counts, group_size)
        if len(rows) < 2 or not seen_pooled:
            return 0.0
        return rows_global_peculiarity(
            rows, seen_pooled, self._distance_fn, self._global_use_min
        )

    # -- all four -----------------------------------------------------------
    def score(
        self,
        counts: np.ndarray,
        group_size: int,
        seen_pooled: Sequence[RatingDistribution],
    ) -> CriterionScores:
        """Raw scores of one candidate map from its histogram matrix.

        Fully vectorised for the default STD/TVD configuration (the hot
        path of the phased framework); other configurations fall back to
        the per-subgroup reference implementations above.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size == 0:
            return CriterionScores.zero()
        totals = counts.sum(axis=1)
        support = self._effective_support(counts, group_size)
        supported = totals >= support
        n_subgroups = int(supported.sum())
        if n_subgroups < 2:
            return CriterionScores.zero()

        if not self._fast:
            return CriterionScores(
                conciseness=self.conciseness(counts, group_size),
                agreement=self.agreement(counts, group_size),
                pec_self=self.self_peculiarity(counts, group_size),
                pec_global=self.global_peculiarity(
                    counts, seen_pooled, group_size
                ),
                n_subgroups=n_subgroups,
            )

        sub = counts[supported]
        sub_totals = totals[supported][:, None]
        values = np.arange(1, counts.shape[1] + 1, dtype=np.float64)
        probs = sub / sub_totals
        means = probs @ values
        variances = probs @ (values**2) - means**2
        stds = np.sqrt(np.maximum(variances, 0.0))
        sigma = float(np.average(stds, weights=sub_totals[:, 0]))
        agreement = 1.0 / (1.0 + sigma)

        pooled = sub.sum(axis=0)
        pooled_p = pooled / pooled.sum()
        scale = counts.shape[1]
        per_subgroup_tvd = 0.5 * np.abs(probs - pooled_p).sum(axis=1)
        penalties = np.sqrt(scale / (8.0 * sub_totals[:, 0]))
        pec_self = float(np.maximum(per_subgroup_tvd - penalties, 0.0).max())

        pec_global = 0.0
        if seen_pooled:
            seen_p = np.stack([q.probabilities() for q in seen_pooled])
            distances = 0.5 * np.abs(seen_p - pooled_p).sum(axis=1)
            best = float(
                distances.min() if self._global_use_min else distances.max()
            )
            pec_global = max(
                0.0, best - noise_penalty(float(pooled.sum()), scale)
            )

        return CriterionScores(
            conciseness=group_size / n_subgroups,
            agreement=agreement,
            pec_self=pec_self,
            pec_global=pec_global,
            n_subgroups=n_subgroups,
        )
