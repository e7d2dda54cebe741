"""The scoring thread pool is hoisted: one pool per builder, ever.

Regression guard for per-request executor churn: under the naive
oracle's parallel per-candidate scoring a burst of requests must construct
exactly one ``ThreadPoolExecutor`` and never leave more than ``workers()``
live ``subdex-score`` threads behind.  The family-batched path scores on
the request's thread and never creates the pool at all.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import repro.core.recommend as recommend_module


def _live_score_threads() -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("subdex-score")
    ]


def _burst(engine) -> None:
    session = engine.session()
    session.step(with_recommendations=False)
    for __ in range(20):
        recommendations = session.recommendations(o=3)
        assert recommendations
        # anytime runs the same scan, so it shares the same hoisted pool
        session.recommendations_anytime(o=3)


def test_no_thread_churn_across_requests(
    batch_db_factory, batch_engine_factory, monkeypatch
):
    created: list[str] = []

    class CountingExecutor(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("thread_name_prefix", ""))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(
        recommend_module, "ThreadPoolExecutor", CountingExecutor
    )
    # a fixed core count, so the pool exists on single-CPU machines too
    monkeypatch.setattr(recommend_module.os, "cpu_count", lambda: 8)
    database = batch_db_factory(seed=1, name="pooldb")

    _burst(batch_engine_factory(database))
    assert created == []

    before = len(_live_score_threads())
    engine = batch_engine_factory(database, use_index=False)
    _burst(engine)
    assert created == ["subdex-score"]
    assert (
        len(_live_score_threads()) - before
        <= engine.recommender.config.workers()
    )
    # and the builder hands back the same executor object every time
    assert (
        engine.recommender._shared_pool()
        is engine.recommender._shared_pool()
    )
