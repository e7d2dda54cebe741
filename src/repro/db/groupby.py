"""Group-by engine with shared multi-aggregate execution.

Rating maps (paper Def. 2) are GroupBy-and-aggregate views over a rating
group.  Two properties of that workload shape this module:

* **Sharing** (paper §4.2.1, "Combining Multiple Aggregates"): all rating
  maps that group by the same attribute differ only in the aggregated rating
  dimension, so the attribute's key is built once and each dimension is one
  ``bincount`` against it (:meth:`~repro.index.cubes.StepSlices.group_hist`).
* **Phased execution** (paper Alg. 1): pruning operates on *partial* results.
  Algorithm 1 reads every phase's histograms from one keyed pass
  (:meth:`~repro.index.cubes.StepSlices.phase_counts`); :func:`phase_bounds`
  fixes its phases.

Because rating scores live on an integer scale ``1..m`` (Def. 1), a per-group
histogram of counts is a sufficient statistic: mean, standard deviation and
every distance measure derive from it.

Columns are kept in the *trash-cell layout* shared with
:class:`~repro.index.cubes.StepSlices`: subgroup codes shifted by one
(missing → 0, :func:`shifted_codes`) and score buckets with invalid scores
in an extra bucket (:func:`score_buckets`), both in the narrowest unsigned
dtype.  A batch is then one unmasked ``bincount`` per (attribute,
dimension) pair, and the real counts are the cells ``[1:, :m]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .table import Table

__all__ = [
    "Grouping",
    "build_grouping",
    "group_histograms",
    "narrowest",
    "phase_bounds",
    "phase_slices",
    "score_buckets",
    "shifted_codes",
]


@dataclass(frozen=True)
class Grouping:
    """Dictionary encoding of one grouping attribute over a table.

    ``codes[i]`` is the subgroup index of row ``i`` (``-1`` = missing, the
    row belongs to no subgroup) and ``labels[g]`` names subgroup ``g``.
    """

    attribute: str
    codes: np.ndarray
    labels: tuple[Any, ...]

    @property
    def n_groups(self) -> int:
        return len(self.labels)

    def group_sizes(self) -> np.ndarray:
        """Number of rows in each subgroup."""
        valid = self.codes[self.codes >= 0]
        return np.bincount(valid, minlength=self.n_groups)


def build_grouping(table: Table, attribute: str) -> Grouping:
    """Dictionary-encode ``attribute`` of ``table`` for grouping."""
    codes, labels = table.column(attribute).group_codes()
    return Grouping(attribute, codes, tuple(labels))


def group_histograms(
    codes: np.ndarray,
    n_groups: int,
    scores: np.ndarray,
    scale: int,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Histogram of integer scores ``1..scale`` per subgroup.

    Parameters
    ----------
    codes:
        Full-length subgroup codes (``-1`` excluded from all groups).
    n_groups:
        Number of subgroups.
    scores:
        Full-length float array of scores; non-finite and out-of-scale
        entries are ignored.
    scale:
        Rating scale ``m`` — scores are expected in ``{1, ..., m}``.
    rows:
        Optional subset of row indices to accumulate (for phased scans).

    Returns
    -------
    ``(n_groups, scale)`` int64 matrix of counts.
    """
    if rows is not None:
        codes = codes[rows]
        scores = scores[rows]
    with np.errstate(invalid="ignore"):
        valid = (codes >= 0) & np.isfinite(scores) & (scores >= 1) & (scores <= scale)
    codes = codes[valid]
    buckets = scores[valid].astype(np.int64) - 1
    flat = np.bincount(codes * scale + buckets, minlength=n_groups * scale)
    return flat.reshape(n_groups, scale)


def narrowest(values: np.ndarray, top: int) -> np.ndarray:
    """``values`` (all in ``0..top``) in the narrowest unsigned dtype."""
    return values.astype(np.min_scalar_type(top))


def shifted_codes(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Subgroup codes shifted by one: missing ``-1`` becomes trash code 0."""
    return narrowest(codes + 1, n_groups)


def score_buckets(scores: np.ndarray, scale: int) -> np.ndarray:
    """Score buckets ``0..scale-1``; non-finite or out-of-scale → ``scale``.

    With :func:`shifted_codes` this is the *trash-cell layout*: a
    histogram pass bincounts every row with no masking, and the real
    counts are the cells ``[1:, :scale]`` of the extended matrix.
    """
    with np.errstate(invalid="ignore"):
        valid = np.isfinite(scores) & (scores >= 1) & (scores <= scale)
    return narrowest(np.where(valid, scores, scale + 1.0).astype(np.int64) - 1, scale)


def phase_bounds(n_rows: int, n_phases: int) -> np.ndarray:
    """Boundaries of :func:`phase_slices`: block ``i`` is ``[b[i], b[i+1])``."""
    n_phases = max(1, int(n_phases))
    if n_rows <= 0:
        return np.zeros(2, dtype=np.int64)
    return np.linspace(0, n_rows, num=min(n_phases, n_rows) + 1, dtype=np.int64)


def phase_slices(n_rows: int, n_phases: int) -> list[np.ndarray]:
    """Partition ``range(n_rows)`` into ``n_phases`` near-equal index blocks.

    The paper's phased framework (Alg. 1) processes "the i-th fraction of the
    group" per phase; blocks here are contiguous, sized within one row of
    each other, and jointly cover every row exactly once.  Fewer rows than
    phases yields fewer (non-empty) blocks.
    """
    bounds = phase_bounds(n_rows, n_phases)
    return [
        np.arange(bounds[i], bounds[i + 1], dtype=np.int64)
        for i in range(len(bounds) - 1)
    ]
