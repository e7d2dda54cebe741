"""Group-by engine with shared multi-aggregate execution.

Rating maps (paper Def. 2) are GroupBy-and-aggregate views over a rating
group.  Two properties of that workload shape this module:

* **Sharing** (paper §4.2.1, "Combining Multiple Aggregates"): all rating
  maps that group by the same attribute differ only in the aggregated rating
  dimension, so one scan computes histograms for every dimension at once.
* **Phased execution** (paper Alg. 1): pruning operates on *partial* results,
  so accumulators accept incremental batches of rows and expose their
  partial histograms at any point.  Algorithm 1 itself reads every phase's
  histograms from one keyed pass
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
from typing import Any, Mapping, Sequence

import numpy as np

from ..exceptions import SchemaError
from .table import Table

__all__ = [
    "Grouping",
    "HistogramAccumulator",
    "SharedGroupByScan",
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


class HistogramAccumulator:
    """Incrementally accumulated per-subgroup score histograms.

    One accumulator corresponds to one (grouping attribute, rating dimension)
    pair — i.e. one candidate rating map.  ``update`` folds in a batch of
    rows; ``counts`` is always the histogram of all rows seen so far.  The
    columns are kept in the trash-cell layout (:func:`score_buckets`), so a
    batch is one ``bincount``.
    """

    def __init__(self, grouping: Grouping, scores: np.ndarray, scale: int) -> None:
        if scale < 2:
            raise SchemaError(f"rating scale must be >= 2, got {scale}")
        self._grouping = grouping
        self._buckets = score_buckets(np.asarray(scores, dtype=np.float64), int(scale))
        self._scale = int(scale)
        self._cells = np.zeros(
            (grouping.n_groups + 1, self._scale + 1), dtype=np.int64
        )
        self._rows_seen = 0

    @property
    def counts(self) -> np.ndarray:
        """The ``(n_groups, scale)`` partial histogram (a view — don't mutate)."""
        return self._cells[1:, : self._scale]

    @property
    def rows_seen(self) -> int:
        return self._rows_seen

    def update(self, rows: "np.ndarray | slice") -> None:
        """Fold the scores at ``rows`` (indices or a slice) into the histograms."""
        key = shifted_codes(self._grouping.codes[rows], self._grouping.n_groups)
        self.fold(np.multiply(key, self._scale + 1, dtype=np.int64), rows)

    def fold(self, base: np.ndarray, rows: "np.ndarray | slice") -> None:
        """Fold in ``rows`` given their keys pre-multiplied by ``scale + 1``.

        The sharing fast path: a :class:`SharedGroupByScan` builds ``base``
        once per batch and every dimension reuses it.
        """
        buckets = self._buckets[rows]
        flat = self._cells.reshape(-1)
        flat += np.bincount(base + buckets, minlength=flat.size)
        self._rows_seen += int(len(buckets))

    def update_all(self) -> None:
        """Fold in every row at once (the no-phasing path)."""
        self.update(slice(None))


class SharedGroupByScan:
    """Shared scan over one grouping attribute for many rating dimensions.

    Implements the paper's "Combining Multiple Aggregates" sharing
    optimization: the grouping's shifted codes are built once and every
    dimension's accumulator reuses them, so a batch reads each row's key
    once per attribute and each (attribute, dimension) pair costs one
    ``bincount``.  ``update`` accepts row indices or a ``slice``.
    """

    def __init__(
        self,
        grouping: Grouping,
        dimension_scores: Mapping[str, np.ndarray],
        scale: int,
    ) -> None:
        self._key = shifted_codes(grouping.codes, grouping.n_groups)
        self._stride = int(scale) + 1
        self._accumulators = {
            dim: HistogramAccumulator(grouping, scores, scale)
            for dim, scores in dimension_scores.items()
        }

    def accumulator(self, dimension: str) -> HistogramAccumulator:
        return self._accumulators[dimension]

    def update(self, rows: "np.ndarray | slice") -> None:
        base = np.multiply(self._key[rows], self._stride, dtype=np.int64)
        for accumulator in self._accumulators.values():
            accumulator.fold(base, rows)


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
