"""The CDF-table PROFILE EMD equals the direct per-breakpoint evaluation bit
for bit.  GMM selection hits exact distance ties, so a float-reordered EMD
would change which maps a step shows; these tests compare with ``==``."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RatingDistribution
from repro.core.distance import (
    MapDistanceMethod,
    cdf_emd,
    map_distance,
    points_cdf,
    weighted_points_emd,
)
from repro.core.rating_maps import RatingMap, RatingMapSpec, Subgroup
from repro.model import SelectionCriteria, Side


def reference_emd(xs, wx, ys, wy, span):
    """The direct evaluation: two masked sums per merged breakpoint."""
    if len(xs) == 0 or len(ys) == 0:
        return 0.0 if len(xs) == len(ys) else 1.0
    wx = np.asarray(wx, dtype=np.float64)
    wy = np.asarray(wy, dtype=np.float64)
    px = wx / wx.sum()
    py = wy / wy.sum()
    grid = np.unique(np.concatenate([xs, ys]))
    cdf_x = np.array([px[xs <= g].sum() for g in grid])
    cdf_y = np.array([py[ys <= g].sum() for g in grid])
    gaps = np.diff(grid)
    area = float(np.abs(cdf_x[:-1] - cdf_y[:-1]).dot(gaps))
    return area / span if span > 0 else 0.0


# a few grid means (ties and shared points) mixed with arbitrary ones
_point = st.one_of(
    st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 10 / 3, 4.0, 4.5, 5.0]),
    st.floats(1.0, 5.0, allow_nan=False),
)
_weight = st.one_of(
    st.integers(1, 500).map(float), st.floats(1e-3, 1e3, allow_nan=False)
)


@st.composite
def _point_sets(draw):
    xs = draw(st.lists(_point, max_size=13))
    shared = draw(st.lists(st.sampled_from(xs), max_size=6)) if xs else []
    ys = draw(st.lists(_point, max_size=13 - len(shared))) + shared
    ys = draw(st.permutations(ys))
    wx = draw(st.lists(_weight, min_size=len(xs), max_size=len(xs)))
    wy = draw(st.lists(_weight, min_size=len(ys), max_size=len(ys)))
    return (
        np.array(xs, dtype=np.float64),
        np.array(wx),
        np.array(ys, dtype=np.float64),
        np.array(wy),
    )


@settings(max_examples=600, deadline=None)
@given(_point_sets(), st.sampled_from([4.0, 9.0, 0.0]))
def test_weighted_points_emd_matches_reference_bitwise(sets, span):
    xs, wx, ys, wy = sets
    expected = reference_emd(xs, wx, ys, wy, span)
    assert weighted_points_emd(xs, wx, ys, wy, span) == expected
    assert cdf_emd(points_cdf(xs, wx), points_cdf(ys, wy), span) == expected


@settings(max_examples=200, deadline=None)
@given(_point_sets())
def test_emd_is_symmetric_and_zero_on_itself(sets):
    xs, wx, ys, wy = sets
    a, b = points_cdf(xs, wx), points_cdf(ys, wy)
    assert cdf_emd(a, a, 4.0) == 0.0
    assert cdf_emd(a, b, 4.0) == reference_emd(xs, wx, ys, wy, 4.0)
    assert cdf_emd(b, a, 4.0) == reference_emd(ys, wy, xs, wx, 4.0)


def test_edge_cases():
    empty = np.array([], dtype=np.float64)
    one = np.array([3.0])
    assert weighted_points_emd(empty, empty, empty, empty, 4.0) == 0.0
    assert weighted_points_emd(empty, empty, one, one, 4.0) == 1.0
    assert weighted_points_emd(one, one, empty, empty, 4.0) == 1.0
    dup = np.array([2.0, 2.0, 2.0])
    w = np.array([1.0, 2.0, 3.0])
    assert weighted_points_emd(dup, w, one, one, 4.0) == reference_emd(
        dup, w, one, one, 4.0
    )
    breaks, cdf = points_cdf(dup, w)
    assert breaks.tolist() == [2.0]
    assert cdf.tolist() == [0.0, 1.0]


_counts = st.lists(st.integers(0, 30), min_size=5, max_size=5)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_counts, min_size=1, max_size=8),
    st.lists(_counts, min_size=1, max_size=8),
)
def test_map_distance_matches_reference_on_profiles(counts_a, counts_b):
    def build(name, counts):
        spec = RatingMapSpec(Side.ITEM, name, "overall")
        subgroups = [
            Subgroup(f"g{i}", RatingDistribution(c)) for i, c in enumerate(counts)
        ]
        return RatingMap(spec, SelectionCriteria.root(), subgroups, 100)

    def profile(rating_map):
        means = np.array([sg.distribution.mean() for sg in rating_map.subgroups])
        weights = np.array(
            [sg.distribution.total for sg in rating_map.subgroups],
            dtype=np.float64,
        )
        keep = np.isfinite(means) & (weights > 0)
        return means[keep], weights[keep]

    a, b = build("city", counts_a), build("price", counts_b)
    xs, wx = profile(a)
    ys, wy = profile(b)
    expected = reference_emd(xs, wx, ys, wy, 4.0)
    for __ in range(2):  # the second call reads the cached tables
        assert map_distance(a, b, MapDistanceMethod.PROFILE) == expected
