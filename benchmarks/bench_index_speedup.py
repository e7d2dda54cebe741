"""Index speedup — naive scans vs the index layer vs family batching.

One recommendation step's neighbourhood scoring (Problem 2 at the root
selection) is timed on the Fig. 10 synthetic Yelp database at three scales,
in three engine configurations: the naive scan-everything oracle, the
per-candidate indexed path (``use_index`` on, ``batch_scoring`` off) and
the family-batched path (both on).  All variants run in the same process
and their answers are compared fingerprint-for-fingerprint — speedups are
only reported if the accelerated paths reproduced the naive oracle exactly.

The root neighbourhood holds only FILTER candidates, so each scale also
times a *depth-2* step — the root's top FILTER already applied — whose
neighbourhood adds the CHANGE and GENERALIZE candidates of that pair
(naive vs batched, fingerprint-checked into the same ``identical``
column; reported, not gated).

Scales are multiples of ``REPRO_INDEX_BENCH_SF`` (default 1.0, the paper's
full synthetic size).  At full size the medium config must show the ≥3×
indexed speedup and the ≥8× batched speedup (ROADMAP target: 10×); at
reduced CI sizes (where fixed per-candidate statistical work dominates)
the bar is only that the accelerated paths are not slower.
"""

from __future__ import annotations

import os

from repro.bench import Metric, format_table, report, time_call
from repro.core.engine import SubDEx, SubDExConfig
from repro.datasets import yelp
from repro.index.verify import diff_recommendations

_SCALES = {"small": 0.25, "medium": 1.0, "large": 2.0}
_SPEEDUP_FLOOR = 3.0
_ROUTES = ("cube", "sibling", "containment", "delta", "direct")
_BATCH_SPEEDUP_FLOOR = 8.0


def _base_sf() -> float:
    return float(os.environ.get("REPRO_INDEX_BENCH_SF", "1.0"))


def test_index_speedup(benchmark):
    #: per scale: depth-2 (naive s, batched s)
    depth2_s: dict[str, tuple[float, float]] = {}

    def run():
        rows = []
        outcomes = {}
        for name, multiplier in _SCALES.items():
            sf = multiplier * _base_sf()
            database = yelp(seed=0, scale_factor=sf)
            naive = SubDEx(database, SubDExConfig(use_index=False))
            indexed = SubDEx(
                database, SubDExConfig(use_index=True, batch_scoring=False)
            )
            batched = SubDEx(
                database, SubDExConfig(use_index=True, batch_scoring=True)
            )
            naive_result, naive_s = time_call(naive.recommend, repeats=1)
            indexed_result, indexed_s = time_call(indexed.recommend, repeats=1)
            batched_result, batched_s = time_call(batched.recommend, repeats=1)
            depth2 = naive_result[0].target
            naive2, naive2_s = time_call(lambda: naive.recommend(depth2))
            batched2, batched2_s = time_call(lambda: batched.recommend(depth2))
            diffs = diff_recommendations(naive_result, indexed_result)
            batch_diffs = diff_recommendations(
                naive_result, batched_result
            ) + diff_recommendations(naive2, batched2)
            depth2_s[name] = (naive2_s, batched2_s)
            speedup = naive_s / indexed_s if indexed_s else float("inf")
            batch_speedup = naive_s / batched_s if batched_s else float("inf")
            outcomes[name] = (
                speedup, batch_speedup,
                naive_s, indexed_s, batched_s,
                diffs, batch_diffs,
            )
            stats = batched.index.stats()
            rows.append(
                (
                    name,
                    f"{database.n_ratings}",
                    f"{naive_s:.2f}",
                    f"{indexed_s:.2f}",
                    f"{batched_s:.2f}",
                    f"{speedup:.2f}x",
                    f"{batch_speedup:.2f}x",
                    f"{naive2_s:.2f}",
                    f"{batched2_s:.2f}",
                    f"{naive2_s / batched2_s if batched2_s else float('inf'):.2f}x",
                    "yes" if not (diffs or batch_diffs) else "NO",
                    "/".join(
                        str(stats[f"candidates_{route}"])
                        for route in _ROUTES
                    ),
                )
            )
        return rows, outcomes

    rows, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "== Index speedup: neighbourhood scoring, naive vs indexed vs"
        " batched ==\n"
        + format_table(
            (
                "config",
                "|R|",
                "naive (s)",
                "indexed (s)",
                "batched (s)",
                "indexed",
                "batched",
                "d2 naive (s)",
                "d2 batched (s)",
                "d2 batched",
                "identical",
                "/".join(_ROUTES),
            ),
            rows,
        )
        + f"\nbase scale factor: {_base_sf()} (REPRO_INDEX_BENCH_SF)"
        + "\nd2 = a depth-2 step (the root's top FILTER applied): its"
        " neighbourhood adds CHANGE/GENERALIZE candidates."
        + "\nidentical = indexed AND batched recommendations (root and"
        " depth-2) fingerprint-equal to the naive oracle in this same run."
        + "\nroute counts are the batched engine's index counters over both"
        " steps."
    )
    metrics = {}
    for name, (
        speedup, batch_speedup, naive_s, indexed_s, batched_s, __, ___,
    ) in outcomes.items():
        metrics[f"{name}_naive_s"] = naive_s
        metrics[f"{name}_indexed_s"] = indexed_s
        metrics[f"{name}_batched_s"] = batched_s
        metrics[f"{name}_depth2_naive_s"] = depth2_s[name][0]
        metrics[f"{name}_depth2_batched_s"] = depth2_s[name][1]
        metrics[f"{name}_speedup"] = Metric(
            speedup, unit="x", higher_is_better=True, portable=True
        )
        metrics[f"{name}_batched_speedup"] = Metric(
            batch_speedup, unit="x", higher_is_better=True, portable=True
        )
    report(
        "index_speedup",
        text,
        metrics=metrics,
        config={"base_sf": _base_sf(), "scales": dict(_SCALES)},
    )

    for name, (
        __, ___, ____, _____, ______, diffs, batch_diffs,
    ) in outcomes.items():
        assert not diffs, f"{name}: indexed differs from naive: {diffs[:3]}"
        assert not batch_diffs, (
            f"{name}: batched differs from naive: {batch_diffs[:3]}"
        )
    speedup, batch_speedup, naive_s, indexed_s, batched_s, __, ___ = (
        outcomes["medium"]
    )
    # at any scale the accelerated paths must not lose to their fallback
    # (5% timer-noise margin)
    assert indexed_s <= naive_s * 1.05, (
        f"indexed slower than naive on medium: {indexed_s:.2f}s vs"
        f" {naive_s:.2f}s"
    )
    assert batched_s <= indexed_s * 1.05, (
        f"batched slower than indexed on medium: {batched_s:.2f}s vs"
        f" {indexed_s:.2f}s"
    )
    if _base_sf() >= 0.9:
        # full-size run: the headline claims
        assert speedup >= _SPEEDUP_FLOOR, (
            f"medium indexed speedup {speedup:.2f}x below {_SPEEDUP_FLOOR}x"
        )
        assert batch_speedup >= _BATCH_SPEEDUP_FLOOR, (
            f"medium batched speedup {batch_speedup:.2f}x below"
            f" {_BATCH_SPEEDUP_FLOOR}x"
        )
