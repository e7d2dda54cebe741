"""Distances between rating distributions and rating maps (paper §3.2.4, §4.1).

Distribution-level measures:

* :func:`emd` — Earth Mover's Distance.  On a 1-D integer scale it has the
  closed form ``Σ |CDF_p − CDF_q| / (m − 1)`` and lies in [0, 1].
* :func:`total_variation` — the peculiarity distance (paper §4.1), in [0, 1].
* :func:`kl_divergence` — smoothed Kullback–Leibler, the paper's stated
  alternative peculiarity measure.

Map-level distance ``d(rm, rm')`` (used by div(RM) and GMM).  The paper
specifies "EMD between rating distributions", but a rating map is a *set*
of subgroup distributions, so three concrete liftings are provided (see
DESIGN.md §2):

* ``POOLED`` — EMD between the maps' pooled distributions.  Cheap, but blind
  to the grouping attribute.
* ``PROFILE`` (default) — EMD between the count-weighted point sets of
  subgroup mean scores.  Sensitive to both the rating dimension and the
  grouping attribute, which is what drives the paper's observation that
  diversity surfaces more distinct attributes (Table 5).
* ``NESTED`` — exact EMD whose ground distance is itself the EMD between
  subgroup distributions (a small transportation LP).  The reference
  implementation used in tests and the distance ablation bench.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import optimize

from .distributions import RatingDistribution

if TYPE_CHECKING:  # pragma: no cover
    from .rating_maps import RatingMap

__all__ = [
    "MapDistanceMethod",
    "emd",
    "total_variation",
    "kl_divergence",
    "points_cdf",
    "cdf_emd",
    "weighted_points_emd",
    "transportation_cost",
    "map_distance",
    "min_pairwise_distance",
]


class MapDistanceMethod(str, enum.Enum):
    """How to lift distribution EMD to whole rating maps."""

    POOLED = "pooled"
    PROFILE = "profile"
    NESTED = "nested"


def emd(p: RatingDistribution, q: RatingDistribution) -> float:
    """Normalised 1-D Earth Mover's Distance between two distributions."""
    if p.scale != q.scale:
        raise ValueError("distributions must share a scale")
    cdf_gap = np.cumsum(p.probabilities() - q.probabilities())
    return float(np.abs(cdf_gap[:-1]).sum() / (p.scale - 1))


def total_variation(p: RatingDistribution, q: RatingDistribution) -> float:
    """Total variation distance ``0.5 Σ |p_j − q_j|`` ∈ [0, 1]."""
    if p.scale != q.scale:
        raise ValueError("distributions must share a scale")
    return float(0.5 * np.abs(p.probabilities() - q.probabilities()).sum())


def kl_divergence(
    p: RatingDistribution, q: RatingDistribution, smoothing: float = 1e-3
) -> float:
    """Smoothed KL divergence ``D(p ‖ q)`` (non-symmetric, ≥ 0)."""
    if p.scale != q.scale:
        raise ValueError("distributions must share a scale")
    pp = p.probabilities() + smoothing
    qq = q.probabilities() + smoothing
    pp /= pp.sum()
    qq /= qq.sum()
    return float((pp * np.log(pp / qq)).sum())


def points_cdf(xs: np.ndarray, wx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step CDF of one weighted point set, as ``(breaks, cdf)``.

    ``breaks`` are the distinct points in ascending order and ``cdf[i]`` is
    the normalised weight at or below ``breaks[i - 1]`` (``cdf[0] = 0``).
    Each entry is the same masked sum, over points in input order, that a
    direct evaluation at that breakpoint takes, so :func:`cdf_emd` over two
    tables is bit-identical to evaluating both CDFs on the merged grid.
    """
    xs = np.asarray(xs)
    wx = np.asarray(wx, dtype=np.float64)
    px = wx / wx.sum()
    breaks = np.unique(xs)
    return breaks, np.array([0.0] + [px[xs <= g].sum() for g in breaks])


def cdf_emd(
    a: tuple[np.ndarray, np.ndarray],
    b: tuple[np.ndarray, np.ndarray],
    span: float,
) -> float:
    """EMD between two :func:`points_cdf` tables, normalised by ``span``.

    The integral of the absolute CDF difference, exact on the merged
    breakpoint grid; each CDF is looked up on the grid, not re-summed.
    """
    breaks_a, cdf_a = a
    breaks_b, cdf_b = b
    if len(breaks_a) == 0 or len(breaks_b) == 0:
        return 0.0 if len(breaks_a) == len(breaks_b) else 1.0
    grid = np.unique(np.concatenate([breaks_a, breaks_b]))
    at_a = cdf_a[np.searchsorted(breaks_a, grid, side="right")]
    at_b = cdf_b[np.searchsorted(breaks_b, grid, side="right")]
    area = float(np.abs(at_a[:-1] - at_b[:-1]).dot(np.diff(grid)))
    return area / span if span > 0 else 0.0


def weighted_points_emd(
    xs: np.ndarray,
    wx: np.ndarray,
    ys: np.ndarray,
    wy: np.ndarray,
    span: float,
) -> float:
    """EMD between two weighted point sets on a line, normalised by ``span``.

    Weights are normalised to sum to 1 on each side; the EMD is then the
    integral of the absolute CDF difference, computed exactly on the merged
    breakpoint grid.  Callers comparing one set against many build its
    :func:`points_cdf` once and call :func:`cdf_emd`.
    """
    return cdf_emd(points_cdf(xs, wx), points_cdf(ys, wy), span)


def transportation_cost(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> float:
    """Minimum-cost transportation between two unit mass vectors.

    Solves ``min Σ f_ij c_ij`` s.t. row sums = supply, column sums = demand,
    ``f ≥ 0`` with ``Σ supply = Σ demand = 1``, via linear programming.
    """
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    n, m = len(supply), len(demand)
    if cost.shape != (n, m):
        raise ValueError("cost matrix shape mismatch")
    # equality constraints: n row-sum rows + m column-sum rows
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([supply, demand])
    result = optimize.linprog(
        cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    if not result.success:  # pragma: no cover - LP on a feasible polytope
        raise RuntimeError(f"transportation LP failed: {result.message}")
    return float(result.fun)


def _profile_cdf(rating_map: "RatingMap") -> tuple[np.ndarray, np.ndarray]:
    """The CDF table of the map's count-weighted subgroup means (cached)."""
    cached = getattr(rating_map, "_profile_cdf", None)
    if cached is not None:
        return cached
    means = np.array([sg.distribution.mean() for sg in rating_map.subgroups])
    weights = np.array(
        [sg.distribution.total for sg in rating_map.subgroups], dtype=np.float64
    )
    keep = np.isfinite(means) & (weights > 0)
    table = points_cdf(means[keep], weights[keep])
    rating_map._profile_cdf = table
    return table


def map_distance(
    a: "RatingMap",
    b: "RatingMap",
    method: MapDistanceMethod = MapDistanceMethod.PROFILE,
) -> float:
    """Distance ``d(rm, rm')`` between two rating maps, in [0, 1]."""
    if method is MapDistanceMethod.POOLED:
        return emd(a.pooled(), b.pooled())
    if method is MapDistanceMethod.PROFILE:
        return cdf_emd(_profile_cdf(a), _profile_cdf(b), float(a.scale - 1))
    if method is MapDistanceMethod.NESTED:
        supply = np.array(
            [sg.distribution.total for sg in a.subgroups], dtype=np.float64
        )
        demand = np.array(
            [sg.distribution.total for sg in b.subgroups], dtype=np.float64
        )
        if supply.sum() == 0 or demand.sum() == 0:
            return 0.0
        supply /= supply.sum()
        demand /= demand.sum()
        cost = np.array(
            [
                [emd(sa.distribution, sb.distribution) for sb in b.subgroups]
                for sa in a.subgroups
            ]
        )
        return transportation_cost(supply, demand, cost)
    raise ValueError(f"unknown map distance method {method!r}")


def min_pairwise_distance(
    maps: Sequence["RatingMap"],
    method: MapDistanceMethod = MapDistanceMethod.PROFILE,
) -> float:
    """``div(RM) = min over pairs of d(rm, rm')`` (paper §3.2.4).

    Returns 0.0 for fewer than two maps (no diversity to speak of).
    """
    best = None
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            d = map_distance(maps[i], maps[j], method)
            if best is None or d < best:
                best = d
    return best if best is not None else 0.0
