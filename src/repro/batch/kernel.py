"""Batched interestingness scoring over stacked candidate-cube slices.

One FILTER *family* — all candidate operations adding a value of the same
(side, attribute) pair — shares a fused :class:`~repro.index.cubes.CandidateCube`.
Stacking the per-candidate cube slices of one rating-map spec gives a 3-D
count tensor

    ``stack[c, g, s]  =  #ratings of candidate c, subgroup g, score bucket s``

with shape ``(n_candidates, n_groups, scale)``, and the whole family's raw
criterion scores for that spec collapse into a handful of array passes
instead of ``n_candidates`` Python-level scorer calls.

Bitwise contract
----------------
The batch path must be *fingerprint-identical* to the per-candidate oracle
(:meth:`repro.core.interestingness.InterestingnessScorer.score`, STD/TVD
fast path), which compares exact float equality.  Every operation here is
chosen so its floating-point result matches the per-candidate code bit for
bit:

* sums of integer-valued float64 counts are exact (all totals < 2^53), so
  reduction order is irrelevant for ``totals``/``pooled``;
* element-wise IEEE ops (divide, subtract, multiply, sqrt, clip, max) are
  per-element and independent of the batch dimension;
* last-axis reductions (the TVD sums over ``scale`` buckets) reduce the
  same-length vectors with the same pairwise tree regardless of leading
  dimensions;
* the one op whose result *does* depend on operand shape — the BLAS
  matvec behind ``probs @ values`` — is performed per candidate on the
  same compacted ``(n_supported, scale)`` array the scorer builds, inside
  a small Python loop over the (few) active candidates.

Anything the contract cannot cover (non-default dispersion/peculiarity
measures, MINMAX normalisation, diversity-only selection) is rejected up
front by :func:`repro.batch.scoring.supports_batch` and falls back to the
per-candidate path.

Family fusion
-------------
:func:`batch_raw_scores` scores one spec per call; at recommendation scale
that is still thousands of calls on tiny tensors, and the fixed numpy
call overhead dominates.  :func:`batch_family_scores` therefore fuses a
family's *entire* spec list into one pass: the per-spec stacks are
concatenated along the subgroup axis and every per-spec reduction becomes
a ``reduceat`` over segment boundaries.  All fused reductions are either
exact (integer-valued sums, maxes) or last-axis (same pairwise tree), and
the agreement matvecs are grouped by supported-row count so each BLAS
call sees operands of exactly the shape the per-candidate scorer uses —
``(m, scale) @ (scale,)`` slices of a ``(p, m, scale)`` batch are
computed slice by slice by the gufunc and match the 2-D call bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.interestingness import Criterion, CriterionScores
from ..core.normalization import conciseness_01
from ..core.utility import SeenMaps, UtilityConfig

__all__ = [
    "SpecScores",
    "FamilyScores",
    "batch_raw_scores",
    "batch_dw_column",
    "batch_family_scores",
    "batch_family_normalized",
    "batch_family_dw",
    "seen_probabilities",
]


def seen_probabilities(seen: SeenMaps) -> "np.ndarray | None":
    """The ``(n_seen, scale)`` probability stack of the seen maps' pooled
    distributions — the kernels' ``seen_probs`` (``None`` if none seen)."""
    pooled = seen.pooled_distributions()
    return np.stack([q.probabilities() for q in pooled]) if pooled else None


@dataclass(frozen=True)
class SpecScores:
    """Raw criterion columns of one spec across a family stack.

    Each array has one entry per candidate; ``n_subgroups`` is already
    zeroed where the scorer would return :meth:`CriterionScores.zero`
    (fewer than two supported subgroups).  ``informative`` marks the
    candidates whose rating map for this spec would pass
    :attr:`~repro.core.rating_maps.RatingMap.is_informative` (at least two
    subgroup rows with any ratings at all — a weaker floor than support).
    """

    conciseness: np.ndarray
    agreement: np.ndarray
    pec_self: np.ndarray
    pec_global: np.ndarray
    n_subgroups: np.ndarray
    informative: np.ndarray

    def criterion_scores(self, i: int) -> CriterionScores:
        """The scorer-equivalent :class:`CriterionScores` of candidate ``i``."""
        return CriterionScores(
            conciseness=float(self.conciseness[i]),
            agreement=float(self.agreement[i]),
            pec_self=float(self.pec_self[i]),
            pec_global=float(self.pec_global[i]),
            n_subgroups=int(self.n_subgroups[i]),
        )


def batch_raw_scores(
    stack: np.ndarray,
    group_sizes: np.ndarray,
    seen_probs: "np.ndarray | None",
    min_support: int,
    global_use_min: bool,
) -> SpecScores:
    """Score one spec's ``(n, n_groups, scale)`` stack for all candidates.

    ``group_sizes`` are the candidates' rating-group sizes (not the stack
    totals: rows with missing grouping values or invalid scores are not in
    the histogram).  ``seen_probs`` is the ``(n_seen, scale)`` probability
    stack of previously seen maps (``None`` when nothing was seen), and
    ``min_support`` the scorer's already-clamped support floor.
    """
    n, n_groups, scale = stack.shape
    zeros = np.zeros(n)
    izeros = np.zeros(n, dtype=np.int64)
    counts = stack.astype(np.float64)
    row_totals = counts.sum(axis=2)  # (n, n_groups), exact
    informative = (row_totals > 0).sum(axis=1) >= 2
    if n == 0 or n_groups == 0 or scale == 0:
        return SpecScores(zeros, zeros, zeros, zeros, izeros, informative)

    gs = np.asarray(group_sizes, dtype=np.float64)
    seen_sum = row_totals.sum(axis=1)  # exact
    # _effective_support, vectorised: max(2, ceil(min_support * min(1, seen/gs)))
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = np.minimum(1.0, seen_sum / gs)
    support = np.where(
        gs > 0,
        np.maximum(2.0, np.ceil(min_support * fraction)),
        float(min_support),
    )
    supported = row_totals >= support[:, None]
    n_sub = supported.sum(axis=1)
    active = n_sub >= 2
    if not bool(active.any()):
        return SpecScores(zeros, zeros, zeros, zeros, izeros, informative)

    safe_totals = np.where(supported, row_totals, 1.0)
    probs = counts / safe_totals[:, :, None]
    pooled = np.where(supported[:, :, None], counts, 0.0).sum(axis=1)  # exact
    pooled_sum = pooled.sum(axis=1)  # exact
    safe_pooled = np.where(pooled_sum > 0, pooled_sum, 1.0)
    pooled_p = pooled / safe_pooled[:, None]

    # self peculiarity: max over supported rows of max(TVD - noise, 0)
    tvd = 0.5 * np.abs(probs - pooled_p[:, None, :]).sum(axis=2)
    penalties = np.sqrt(scale / (8.0 * safe_totals))
    pec_self = np.where(supported, np.maximum(tvd - penalties, 0.0), 0.0).max(axis=1)

    # global peculiarity: distance of the pooled distribution to seen maps'
    if seen_probs is not None and len(seen_probs):
        dist = 0.5 * np.abs(seen_probs[None, :, :] - pooled_p[:, None, :]).sum(axis=2)
        best = dist.min(axis=1) if global_use_min else dist.max(axis=1)
        noise = np.where(
            pooled_sum > 0, np.sqrt(scale / (8.0 * safe_pooled)), 1.0
        )
        pec_global = np.maximum(0.0, best - noise)
    else:
        pec_global = zeros

    # agreement: the matvec pair must see the scorer's exact compacted
    # (n_supported, scale) operands — BLAS results depend on row count
    values = np.arange(1, scale + 1, dtype=np.float64)
    values_sq = values**2
    agreement = np.zeros(n)
    for i in np.flatnonzero(active):
        sub = counts[i][supported[i]]
        sub_totals = row_totals[i][supported[i]][:, None]
        sub_probs = sub / sub_totals
        means = sub_probs @ values
        variances = sub_probs @ values_sq - means**2
        stds = np.sqrt(np.maximum(variances, 0.0))
        sigma = float(np.average(stds, weights=sub_totals[:, 0]))
        agreement[i] = 1.0 / (1.0 + sigma)

    conciseness = np.where(active, gs / np.where(active, n_sub, 1), 0.0)
    return SpecScores(
        conciseness=conciseness,
        agreement=agreement,
        pec_self=np.where(active, pec_self, 0.0),
        pec_global=np.where(active, pec_global, 0.0),
        n_subgroups=np.where(active, n_sub, 0).astype(np.int64),
        informative=informative,
    )


def batch_dw_column(
    scores: SpecScores, weight: float, config: UtilityConfig
) -> np.ndarray:
    """One spec's DW-utility column, mirroring ``score_candidate_set``.

    SQUASH normalisation + MAX aggregation only (enforced by
    ``supports_batch``); ``weight`` is the spec's combined dimension ×
    attribute weight, constant across the family's candidates.
    """
    normalized: list[np.ndarray] = []
    for criterion in config.criteria:
        if criterion is Criterion.CONCISENESS:
            lut = {
                int(u): conciseness_01(int(u))
                for u in np.unique(scores.n_subgroups)
            }
            norm = np.array(
                [lut[int(v)] for v in scores.n_subgroups], dtype=np.float64
            )
        elif criterion is Criterion.AGREEMENT:
            floor = config.agreement_floor
            norm = np.clip(
                (scores.agreement - floor) / (1.0 - floor), 0.0, 1.0
            )
        elif criterion is Criterion.PECULIARITY_SELF:
            norm = np.clip(scores.pec_self, 0.0, 1.0)
        else:
            norm = np.clip(scores.pec_global, 0.0, 1.0)
        normalized.append(norm)
    utility = normalized[0]
    for column in normalized[1:]:
        utility = np.maximum(utility, column)
    return weight * utility


@dataclass(frozen=True)
class FamilyScores:
    """Raw criterion matrices of a whole family: ``(n_candidates, n_specs)``.

    Column ``j`` equals :func:`batch_raw_scores` on spec ``j``'s stack bit
    for bit; ``criterion_scores`` materialises one candidate × spec cell as
    the scorer-equivalent :class:`CriterionScores`.
    """

    conciseness: np.ndarray
    agreement: np.ndarray
    pec_self: np.ndarray
    pec_global: np.ndarray
    n_subgroups: np.ndarray
    informative: np.ndarray

    @property
    def n_specs(self) -> int:
        return self.conciseness.shape[1]

    def criterion_scores(self, i: int, j: int) -> CriterionScores:
        return CriterionScores(
            conciseness=float(self.conciseness[i, j]),
            agreement=float(self.agreement[i, j]),
            pec_self=float(self.pec_self[i, j]),
            pec_global=float(self.pec_global[i, j]),
            n_subgroups=int(self.n_subgroups[i, j]),
        )


def _family_scores_by_spec(
    stacks: Sequence[np.ndarray],
    group_sizes: np.ndarray,
    seen_probs: "np.ndarray | None",
    min_support: int,
    global_use_min: bool,
) -> FamilyScores:
    """Per-spec fallback assembly (degenerate shapes the fused path skips)."""
    columns = [
        batch_raw_scores(stack, group_sizes, seen_probs, min_support, global_use_min)
        for stack in stacks
    ]
    return FamilyScores(
        conciseness=np.stack([c.conciseness for c in columns], axis=1),
        agreement=np.stack([c.agreement for c in columns], axis=1),
        pec_self=np.stack([c.pec_self for c in columns], axis=1),
        pec_global=np.stack([c.pec_global for c in columns], axis=1),
        n_subgroups=np.stack([c.n_subgroups for c in columns], axis=1),
        informative=np.stack([c.informative for c in columns], axis=1),
    )


def batch_family_scores(
    stacks: Sequence[np.ndarray],
    group_sizes: np.ndarray,
    seen_probs: "np.ndarray | None",
    min_support: int,
    global_use_min: bool,
) -> FamilyScores:
    """Score every spec of a family in one fused pass.

    ``stacks[j]`` is spec ``j``'s ``(n_candidates, n_groups_j, scale)``
    count tensor (all sharing the candidate axis and scale).  Equivalent to
    calling :func:`batch_raw_scores` per spec — bitwise — but the per-spec
    reductions run as segment ``reduceat`` s over one concatenated tensor
    and the agreement loop collapses into a few batched matvecs.
    """
    n_specs = len(stacks)
    n = len(group_sizes)
    if n_specs == 0:
        empty = np.zeros((n, 0))
        return FamilyScores(
            empty, empty.copy(), empty.copy(), empty.copy(),
            np.zeros((n, 0), dtype=np.int64), np.zeros((n, 0), dtype=bool),
        )
    scale = stacks[0].shape[2]
    seg_lens = np.array([stack.shape[1] for stack in stacks], dtype=np.int64)
    if n == 0 or scale == 0 or int(seg_lens.min()) == 0:
        return _family_scores_by_spec(
            stacks, group_sizes, seen_probs, min_support, global_use_min
        )
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
    if seen_probs is not None and len(seen_probs):
        dist = 0.5 * np.abs(
            seen_probs[None, None, :, :] - pooled_p[:, :, None, :]
        ).sum(axis=3)  # (n, n_specs, n_seen)
        best = dist.min(axis=2) if global_use_min else dist.max(axis=2)
        noise = np.where(
            pooled_sum > 0, np.sqrt(scale / (8.0 * safe_pooled)), 1.0
        )
        pec_global = np.maximum(0.0, best - noise)
    else:
        pec_global = np.zeros((n, n_specs))

    # agreement: group the active (candidate, spec) pairs by supported-row
    # count m so each batched matvec matches the scorer's (m, scale) call
    agreement = np.zeros((n, n_specs))
    values = np.arange(1, scale + 1, dtype=np.float64)
    values_sq = values**2
    cand_idx, flat_g = np.nonzero(supported)
    if len(cand_idx):
        seg_of = np.searchsorted(starts, flat_g, side="right") - 1
        pair_ids = cand_idx * n_specs + seg_of
        # the nonzero stream is (candidate, subgroup)-ordered, so each
        # (candidate, spec) pair's supported rows form one contiguous run
        is_start = np.concatenate([[True], pair_ids[1:] != pair_ids[:-1]])
        run_starts = np.flatnonzero(is_start)
        run_lens = np.diff(np.append(run_starts, len(pair_ids)))
        keep = run_lens >= 2  # pairs the scorer treats as active
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

    conciseness = np.where(
        active, np.asarray(group_sizes, dtype=np.float64)[:, None] / np.where(active, n_sub, 1), 0.0
    )
    return FamilyScores(
        conciseness=conciseness,
        agreement=agreement,
        pec_self=np.where(active, pec_self, 0.0),
        pec_global=np.where(active, pec_global, 0.0),
        n_subgroups=np.where(active, n_sub, 0).astype(np.int64),
        informative=informative,
    )


def batch_family_normalized(
    scores: FamilyScores, config: UtilityConfig
) -> list[np.ndarray]:
    """SQUASH-normalised ``(n_candidates, n_specs)`` matrices, one per
    criterion of ``config.criteria`` (in that order).

    Element-wise mirrors of ``normalize_criteria``: conciseness maps each
    ``n_subgroups`` through the same :func:`conciseness_01` values, the
    bounded criteria are clipped.
    """
    normalized: list[np.ndarray] = []
    for criterion in config.criteria:
        if criterion is Criterion.CONCISENESS:
            uniq = np.unique(scores.n_subgroups)
            lut = np.array([conciseness_01(int(u)) for u in uniq])
            norm = lut[np.searchsorted(uniq, scores.n_subgroups)]
        elif criterion is Criterion.AGREEMENT:
            floor = config.agreement_floor
            norm = np.clip(
                (scores.agreement - floor) / (1.0 - floor), 0.0, 1.0
            )
        elif criterion is Criterion.PECULIARITY_SELF:
            norm = np.clip(scores.pec_self, 0.0, 1.0)
        else:
            norm = np.clip(scores.pec_global, 0.0, 1.0)
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
    Column ``j`` equals ``batch_dw_column(spec_j, weights[j], config)`` bit
    for bit: the normalisations are element-wise (conciseness maps through
    the same per-``n_subgroups`` lookup values) and the MAX aggregation and
    weight multiply are element-wise too.  ``normalized`` passes in
    :func:`batch_family_normalized` of ``scores`` when the caller already
    holds it.
    """
    if normalized is None:
        normalized = batch_family_normalized(scores, config)
    utility = normalized[0]
    for column in normalized[1:]:
        utility = np.maximum(utility, column)
    return np.asarray(weights, dtype=np.float64)[None, :] * utility
