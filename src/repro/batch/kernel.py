"""Batched interestingness scoring over stacked count tensors.

One FILTER *family* — all candidate operations adding a value of the same
(side, attribute) pair — shares a fused :class:`~repro.index.cubes.CandidateCube`.
Stacking the per-candidate cube slices of one rating-map spec gives a 3-D
count tensor

    ``stack[c, g, s]  =  #ratings of candidate c, subgroup g, score bucket s``

with shape ``(n_candidates, n_groups, scale)``.  :func:`batch_family_scores`
scores a family's *entire* spec list in one pass: the per-spec stacks are
concatenated along the subgroup axis and every per-spec reduction becomes
a ``reduceat`` over segment boundaries.  A phase snapshot or a single
group's maps are the one-candidate case.  This is the engine's only
scorer: every utility configuration is a choice of column reductions.

* **Raw criteria** (:func:`batch_family_scores`) — agreement reduces each
  supported row by the configured dispersion, the peculiarities by the
  configured distance.  STD/TVD (the defaults) are array passes; Schutz
  and MacArthur dispersion and KL/Outlier peculiarity run the reference
  scorer's own per-row reductions over each active (candidate, spec)
  pair's supported rows.
* **Normalisation** (:func:`batch_family_normalized`) — SQUASH maps each
  cell on its own; MINMAX is a per-candidate min/max over its specs.
* **Aggregation and DW** (:func:`batch_family_dw`) — MAX is an element-wise
  maximum over the criteria, AVG left-to-right column adds and a divide;
  the DW weight is one multiply per spec column.

Bitwise contract
----------------
Every result is *fingerprint-identical* to the reference pipeline —
:meth:`repro.core.interestingness.InterestingnessScorer.score` followed by
:func:`repro.core.utility.score_candidate_set` — which compares exact float
equality.  Every operation here is chosen so its floating-point result
matches the reference bit for bit:

* sums of integer-valued float64 counts are exact (all totals < 2^53), so
  reduction order is irrelevant for totals and pooled counts;
* element-wise IEEE ops (divide, subtract, multiply, sqrt, clip, max) are
  per-element and independent of the batch dimension, and a min/max
  returns one of its operands exactly;
* last-axis reductions (the TVD sums over ``scale`` buckets) reduce the
  same-length vectors with the same pairwise tree regardless of leading
  dimensions;
* the one op whose result *does* depend on operand shape — the BLAS
  matvec behind the STD agreement's ``probs @ values`` — is grouped by
  supported-row count, so each batched matvec sees operands of exactly the
  ``(m, scale)`` shape the reference builds, slice by slice;
* measures without such a vectorised form call the reference's own
  per-row functions (:func:`~repro.core.interestingness.rows_agreement`
  and the peculiarity twins), on the same supported rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ..core.distributions import RatingDistribution
from ..core.interestingness import (
    _DISPERSION_FN,
    _DISTANCE_FN,
    Criterion,
    CriterionScores,
    DispersionMeasure,
    PeculiarityDistance,
    rows_agreement,
    rows_global_peculiarity,
    rows_self_peculiarity,
)
from ..core.normalization import NormalizationStrategy, conciseness_01
from ..core.utility import SeenMaps, UtilityAggregation, UtilityConfig

__all__ = [
    "SeenPooled",
    "FamilyScores",
    "batch_family_scores",
    "batch_family_normalized",
    "batch_family_dw",
]


@dataclass(frozen=True)
class SeenPooled:
    """The seen maps' pooled distributions: global peculiarity's references.

    ``probs`` is their ``(n_seen, scale)`` probability stack for the TVD
    array pass (``None`` when nothing was seen); the per-row reductions
    read ``distributions``.
    """

    distributions: tuple[RatingDistribution, ...] = ()
    probs: "np.ndarray | None" = None

    @classmethod
    def of(cls, seen: SeenMaps) -> "SeenPooled":
        pooled = seen.pooled_distributions()
        probs = np.stack([q.probabilities() for q in pooled]) if pooled else None
        return cls(pooled, probs)


@dataclass(frozen=True)
class FamilyScores:
    """Raw criterion matrices of a whole family: ``(n_candidates, n_specs)``.

    ``n_subgroups`` is zeroed where the reference returns
    :meth:`CriterionScores.zero` (fewer than two supported subgroups).
    ``informative`` marks the cells whose rating map would pass
    :attr:`~repro.core.rating_maps.RatingMap.is_informative` (at least two
    subgroup rows with any ratings at all — a weaker floor than support).
    ``criterion_scores`` materialises one candidate × spec cell as the
    reference's :class:`CriterionScores`.
    """

    conciseness: np.ndarray
    agreement: np.ndarray
    pec_self: np.ndarray
    pec_global: np.ndarray
    n_subgroups: np.ndarray
    informative: np.ndarray

    @classmethod
    def zeros(cls, n: int, n_specs: int) -> "FamilyScores":
        return cls(
            *(np.zeros((n, n_specs)) for __ in range(4)),
            np.zeros((n, n_specs), dtype=np.int64),
            np.zeros((n, n_specs), dtype=bool),
        )

    def criterion_scores(self, i: int, j: int) -> CriterionScores:
        return CriterionScores(
            conciseness=float(self.conciseness[i, j]),
            agreement=float(self.agreement[i, j]),
            pec_self=float(self.pec_self[i, j]),
            pec_global=float(self.pec_global[i, j]),
            n_subgroups=int(self.n_subgroups[i, j]),
        )


def batch_family_scores(
    stacks: Sequence[np.ndarray],
    group_sizes: np.ndarray,
    seen: SeenPooled,
    config: UtilityConfig,
) -> FamilyScores:
    """Score every spec of a family in one fused pass.

    ``stacks[j]`` is spec ``j``'s ``(n_candidates, n_groups_j, scale)``
    count tensor (all sharing the candidate axis and scale), and
    ``group_sizes`` the candidates' rating-group sizes (not the stack
    totals: rows with missing grouping values or invalid scores are not in
    the histogram).  Column ``j`` equals the reference scorer on each
    candidate's spec-``j`` matrix, bitwise.  Specs without subgroups and
    families without candidates score zero columns.
    """
    n_specs = len(stacks)
    n = len(group_sizes)
    seg_lens = np.array([stack.shape[1] for stack in stacks], dtype=np.int64)
    filled = np.flatnonzero(seg_lens)
    if n == 0 or len(filled) == 0 or stacks[0].shape[2] == 0:
        return FamilyScores.zeros(n, n_specs)
    if len(filled) < n_specs:
        part = batch_family_scores(
            [stacks[j] for j in filled], group_sizes, seen, config
        )
        whole = FamilyScores.zeros(n, n_specs)
        for column in fields(FamilyScores):
            getattr(whole, column.name)[:, filled] = getattr(part, column.name)
        return whole
    starts = np.zeros(n_specs, dtype=np.int64)
    np.cumsum(seg_lens[:-1], out=starts[1:])

    counts = np.concatenate(stacks, axis=1).astype(np.float64)  # (n, T, scale)
    row_totals = counts.sum(axis=2)  # (n, T), exact
    nonzero_rows = np.add.reduceat(
        (row_totals > 0).astype(np.int64), starts, axis=1
    )
    informative = nonzero_rows >= 2  # (n, n_specs)

    gs = np.asarray(group_sizes, dtype=np.float64)[:, None]  # (n, 1)
    seen_sum = np.add.reduceat(row_totals, starts, axis=1)  # (n, n_specs), exact
    # the reference's _effective_support, vectorised:
    # max(2, ceil(min_support * min(1, seen / group_size)))
    min_support = max(1, int(config.min_support))
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = np.minimum(1.0, seen_sum / gs)
    support = np.where(
        gs > 0,
        np.maximum(2.0, np.ceil(min_support * fraction)),
        float(min_support),
    )  # (n, n_specs)
    supported = row_totals >= np.repeat(support, seg_lens, axis=1)  # (n, T)
    n_sub = np.add.reduceat(supported.astype(np.int64), starts, axis=1)
    active = n_sub >= 2  # (n, n_specs)

    tvd = config.peculiarity is PeculiarityDistance.TOTAL_VARIATION
    if tvd:
        pec_self, pec_global = _tvd_peculiarity(
            counts, row_totals, supported, starts, seg_lens, seen,
            config.global_use_min,
        )
    if tvd and config.dispersion is DispersionMeasure.STD:
        agreement = _std_agreement(
            counts, row_totals, supported, starts, n_specs
        )
    else:
        # the reference's per-row reductions; its STD fast path covers TVD
        # only, so STD under KL/Outlier reduces row by row too
        agreement = np.zeros((n, n_specs))
        if not tvd:
            pec_self = np.zeros((n, n_specs))
            pec_global = np.zeros((n, n_specs))
        dispersion = _DISPERSION_FN[config.dispersion]
        distance = _DISTANCE_FN[config.peculiarity]
        for i, j in zip(*np.nonzero(active)):
            segment = slice(starts[j], starts[j] + seg_lens[j])
            rows = counts[i, segment][supported[i, segment]]
            agreement[i, j] = rows_agreement(rows, dispersion)
            if not tvd:
                pec_self[i, j] = rows_self_peculiarity(rows, distance)
                if seen.distributions:
                    pec_global[i, j] = rows_global_peculiarity(
                        rows, seen.distributions, distance,
                        config.global_use_min,
                    )

    conciseness = np.where(active, gs / np.where(active, n_sub, 1), 0.0)
    return FamilyScores(
        conciseness=conciseness,
        agreement=agreement,
        pec_self=np.where(active, pec_self, 0.0),
        pec_global=np.where(active, pec_global, 0.0),
        n_subgroups=np.where(active, n_sub, 0).astype(np.int64),
        informative=informative,
    )


def _tvd_peculiarity(
    counts: np.ndarray,
    row_totals: np.ndarray,
    supported: np.ndarray,
    starts: np.ndarray,
    seg_lens: np.ndarray,
    seen: SeenPooled,
    global_use_min: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Self and global TVD peculiarity of every (candidate, spec) cell."""
    n, __, scale = counts.shape
    safe_totals = np.where(supported, row_totals, 1.0)
    probs = counts / safe_totals[:, :, None]
    pooled = np.add.reduceat(
        np.where(supported[:, :, None], counts, 0.0), starts, axis=1
    )  # (n, n_specs, scale), exact
    pooled_sum = pooled.sum(axis=2)  # exact
    safe_pooled = np.where(pooled_sum > 0, pooled_sum, 1.0)
    pooled_p = pooled / safe_pooled[:, :, None]

    # self peculiarity: per-segment max over supported rows
    tvd = 0.5 * np.abs(probs - np.repeat(pooled_p, seg_lens, axis=1)).sum(axis=2)
    penalties = np.sqrt(scale / (8.0 * safe_totals))
    pec_self = np.maximum.reduceat(
        np.where(supported, np.maximum(tvd - penalties, 0.0), 0.0), starts, axis=1
    )

    # global peculiarity of each (candidate, spec) pooled distribution
    if seen.probs is None:
        return pec_self, np.zeros(pooled_sum.shape)
    dist = 0.5 * np.abs(
        seen.probs[None, None, :, :] - pooled_p[:, :, None, :]
    ).sum(axis=3)  # (n, n_specs, n_seen)
    best = dist.min(axis=2) if global_use_min else dist.max(axis=2)
    noise = np.where(pooled_sum > 0, np.sqrt(scale / (8.0 * safe_pooled)), 1.0)
    return pec_self, np.maximum(0.0, best - noise)


def _std_agreement(
    counts: np.ndarray,
    row_totals: np.ndarray,
    supported: np.ndarray,
    starts: np.ndarray,
    n_specs: int,
) -> np.ndarray:
    """STD agreement of every cell with at least two supported rows.

    Groups the active (candidate, spec) pairs by supported-row count m so
    each batched matvec matches the reference's ``(m, scale)`` call.
    """
    n, __, scale = counts.shape
    agreement = np.zeros((n, n_specs))
    values = np.arange(1, scale + 1, dtype=np.float64)
    values_sq = values**2
    cand_idx, flat_g = np.nonzero(supported)
    if not len(cand_idx):
        return agreement
    seg_of = np.searchsorted(starts, flat_g, side="right") - 1
    pair_ids = cand_idx * n_specs + seg_of
    # the nonzero stream is (candidate, subgroup)-ordered, so each
    # (candidate, spec) pair's supported rows form one contiguous run
    is_start = np.concatenate([[True], pair_ids[1:] != pair_ids[:-1]])
    run_starts = np.flatnonzero(is_start)
    run_lens = np.diff(np.append(run_starts, len(pair_ids)))
    keep = run_lens >= 2  # pairs the reference treats as active
    kept_starts = run_starts[keep]
    kept_lens = run_lens[keep]
    kept_pairs = pair_ids[kept_starts]
    flat_agreement = agreement.reshape(-1)
    for m in np.unique(kept_lens):
        sel = kept_starts[kept_lens == m]
        pos = sel[:, None] + np.arange(int(m))  # (p, m) stream offsets
        rows_c = cand_idx[pos]
        rows_g = flat_g[pos]
        sub_probs = counts[rows_c, rows_g] / row_totals[rows_c, rows_g][:, :, None]
        means = sub_probs @ values
        variances = sub_probs @ values_sq - means**2
        stds = np.sqrt(np.maximum(variances, 0.0))
        weights = row_totals[rows_c, rows_g]
        # np.average(stds, weights=w), inlined: multiply → sum → divide
        sigma = np.multiply(stds, weights).sum(axis=1) / weights.sum(axis=1)
        flat_agreement[kept_pairs[kept_lens == m]] = 1.0 / (1.0 + sigma)
    return agreement


def _minmax_rows(values: np.ndarray) -> np.ndarray:
    """``minmax_normalize`` over each candidate's specs (one row).

    NaNs map to 0; a row without contrast (span below 1e-12) maps to the
    neutral 0.5.
    """
    if values.shape[1] == 0:
        return values.copy()
    nan = np.isnan(values)
    lo = np.where(nan, np.inf, values).min(axis=1, keepdims=True)
    hi = np.where(nan, -np.inf, values).max(axis=1, keepdims=True)
    span = hi - lo
    flat = span < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (values - lo) / np.where(flat, 1.0, span)
    return np.where(nan, 0.0, np.where(flat, 0.5, scaled))


def batch_family_normalized(
    scores: FamilyScores, config: UtilityConfig
) -> list[np.ndarray]:
    """Normalised ``(n_candidates, n_specs)`` matrices, one per criterion of
    ``config.criteria`` (in that order).

    Mirrors ``normalize_criteria`` with each candidate's specs as the
    candidate set.  SQUASH maps ``n_subgroups`` through the same
    :func:`conciseness_01` values and clips the bounded criteria; MINMAX
    rescales each raw criterion over the row.
    """
    minmax = config.normalization is NormalizationStrategy.MINMAX
    normalized: list[np.ndarray] = []
    for criterion in config.criteria:
        if criterion is Criterion.CONCISENESS:
            if minmax:
                norm = _minmax_rows(scores.conciseness)
            else:
                uniq = np.unique(scores.n_subgroups)
                lut = np.array([conciseness_01(int(u)) for u in uniq])
                norm = lut[np.searchsorted(uniq, scores.n_subgroups)]
        elif criterion is Criterion.AGREEMENT:
            if minmax:
                norm = _minmax_rows(scores.agreement)
            else:
                floor = config.agreement_floor
                norm = np.clip(
                    (scores.agreement - floor) / (1.0 - floor), 0.0, 1.0
                )
        else:
            raw = (
                scores.pec_self
                if criterion is Criterion.PECULIARITY_SELF
                else scores.pec_global
            )
            norm = _minmax_rows(raw) if minmax else np.clip(raw, 0.0, 1.0)
        normalized.append(norm)
    return normalized


def batch_family_dw(
    scores: FamilyScores,
    weights: np.ndarray,
    config: UtilityConfig,
    normalized: "Sequence[np.ndarray] | None" = None,
) -> np.ndarray:
    """The family's full ``(n_candidates, n_specs)`` DW-utility matrix.

    ``weights[j]`` is spec ``j``'s combined dimension × attribute weight.
    Cell ``(c, j)`` equals ``score_candidate_set``'s ``dw_utility`` of
    candidate ``c``'s spec ``j`` bit for bit: MAX aggregation is an
    element-wise maximum (the first maximal criterion wins, as in
    ``max``), AVG adds the columns left to right from 0 and divides, as
    ``sum(values) / len(values)`` does.  ``normalized`` passes in
    :func:`batch_family_normalized` of ``scores`` when the caller already
    holds it.
    """
    if normalized is None:
        normalized = batch_family_normalized(scores, config)
    if config.aggregation is UtilityAggregation.MAX:
        utility = normalized[0]
        for column in normalized[1:]:
            utility = np.maximum(utility, column)
    else:
        total = 0.0
        for column in normalized:
            total = total + column
        utility = total / len(normalized)
    return np.asarray(weights, dtype=np.float64)[None, :] * utility
