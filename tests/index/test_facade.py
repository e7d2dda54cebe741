"""IndexedDatabase facade: toggle, stats plumbing, budget fallbacks."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.engine import SubDEx, SubDExConfig
from repro.core.recommend import RecommenderConfig
from repro.index.facade import IndexedDatabase
from repro.index.verify import diff_recommendations
from repro.model.groups import RatingGroup, SelectionCriteria


def _config(**kwargs):
    return SubDExConfig(
        recommender=RecommenderConfig(max_values_per_attribute=3), **kwargs
    )


def test_use_index_toggle(clean_db):
    assert SubDEx(clean_db, _config()).index is not None
    assert SubDEx(clean_db, _config(use_index=False)).index is None


def test_group_matches_naive(clean_db):
    index = IndexedDatabase(clean_db)
    criteria = SelectionCriteria.of(reviewer={"gender": "F"}, item={"city": "NYC"})
    indexed, naive = index.group(criteria), RatingGroup(clean_db, criteria)
    np.testing.assert_array_equal(indexed.rows, naive.rows)
    assert indexed.n_reviewers == naive.n_reviewers
    assert indexed.n_items == naive.n_items
    assert indexed.criteria == naive.criteria


#: a depth-2 selection: CHANGE/GENERALIZE of gender take the sibling
#: route, while the multi-valued cuisine pair's CHANGE/GENERALIZE still
#: take the posting (residue) route
DEPTH2 = SelectionCriteria.of(reviewer={"gender": "F"}, item={"cuisine": "Pizza"})


def test_stats_counters_move_during_recommend(clean_db):
    engine = SubDEx(clean_db, _config())
    stats = engine.index.stats()
    assert stats["candidates_cube"] == 0
    engine.recommend()  # root: FILTER cubes + the cuisine containment family
    root = engine.index.stats()
    assert root["candidates_cube"] > 0
    assert root["candidates_containment"] > 0
    assert root["cube_builds"] > 0
    assert root["cube_bytes"] > 0
    engine.recommend(DEPTH2)
    stats = engine.index.stats()
    assert stats["postings"]["builds"] > 0
    assert stats["candidates_sibling"] > 0
    assert stats["cube_builds"] > root["cube_builds"]
    assert stats["candidates_cube"] > root["candidates_cube"]
    # every route is exercised: the multi-valued cuisine pair's
    # CHANGE/GENERALIZE candidates force the posting path
    assert stats["candidates_delta"] + stats["candidates_direct"] > 0


def test_zero_cube_budget_falls_back_to_postings_identically(clean_db):
    fast = SubDEx(clean_db, _config())
    fast._index = IndexedDatabase(clean_db, max_cube_cells=0)
    fast.recommender._index = fast._index
    naive = SubDEx(clean_db, _config(use_index=False))
    for criteria in (None, DEPTH2):
        diffs = diff_recommendations(
            naive.recommend(criteria), fast.recommend(criteria)
        )
        assert not diffs, diffs
    stats = fast.index.stats()
    assert stats["candidates_cube"] == 0
    assert stats["candidates_sibling"] == 0
    assert stats["candidates_containment"] == 0
    assert stats["cube_builds"] == 0


def test_index_memory_budget_reaches_posting_store(clean_db):
    engine = SubDEx(clean_db, _config(index_memory_budget_bytes=1024))
    engine.recommend(DEPTH2)
    stats = engine.index.stats()["postings"]
    assert stats["budget_bytes"] == 1024
    assert stats["evictions"] > 0


def test_metrics_snapshot_shape(clean_db):
    engine = SubDEx(clean_db, _config())
    engine.recommend()
    stats = engine.index.stats()
    assert {
        "postings",
        "cube_builds",
        "cube_bytes",
        "candidates_cube",
        "candidates_sibling",
        "candidates_containment",
        "candidates_delta",
        "candidates_direct",
    } <= set(stats)
    postings = stats["postings"]
    assert {"entries", "bytes", "hits", "misses", "builds", "hit_rate"} <= set(
        postings
    )


def test_concurrent_candidates_build_each_source_once(clean_db):
    """Scoring threads share one context: every family is built once."""
    index, serial_index = IndexedDatabase(clean_db), IndexedDatabase(clean_db)
    parent = index.group(DEPTH2)
    serial = serial_index.neighborhood(parent)
    operations = SubDEx(clean_db, _config()).recommender.candidate_operations(
        DEPTH2
    )
    expected = [
        [serial.candidate(op).counts_of(s) for s in serial.candidate(op).specs]
        for op in operations
    ]
    ctx = index.neighborhood(parent)
    results: dict[int, list] = {}
    errors: list[BaseException] = []

    def work(worker: int) -> None:
        try:
            order = np.random.default_rng(worker).permutation(len(operations))
            for i in order:
                view = ctx.candidate(operations[i])
                got = [view.counts_of(s) for s in view.specs]
                if any(
                    not np.array_equal(a, b) for a, b in zip(got, expected[i])
                ):
                    results[worker] = [i]
                    return
            results[worker] = []
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert results == {w: [] for w in range(8)}
    # the FILTER cubes of the free categorical/numeric attributes and the
    # sibling cube of gender's CHANGEs — each built exactly once
    built = index.stats()["cube_builds"]
    assert built == serial_index.stats()["cube_builds"] > 0
