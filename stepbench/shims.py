"""Timing shims for the traced pass.

``install()`` wraps the public entry points of each layer of the program
(``repro.datasets``, ``repro.index``, ``repro.core`` generator /
recommend / caching / session, ``repro.server`` and ``repro.cluster``)
from outside: the program's files are never edited.  Each wrapped call
records one span — name, start, end, own id and the id of the span that
caused it — in memory; ``Recorder.dump`` writes them out once, when the
process ends.  Spans opened in threads the program starts for itself
(the scoring pool, scatter threads) have no parent.

Timestamps are ``time.perf_counter()``, which on Linux is the
system-wide monotonic clock, so spans from the front process, its
workers and the benchmark's own clients share one time axis.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

#: Environment variable naming the directory a traced process dumps to.
TRACE_DIR_ENV = "STEPBENCH_TRACE_DIR"


class Recorder:
    """In-memory span store plus the instances whose counters we read."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.instances: dict[str, list] = {"index": [], "caching": [], "recommend": []}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, extra: dict | None = None, cpu: bool = False):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        cpu_start = time.process_time() if cpu else 0.0
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if cpu:
                extra = dict(extra or {}, cpu=time.process_time() - cpu_start)
            self.spans.append((name, start, end, span_id, parent, extra))

    def wrap(self, owner, attribute: str, name: str, cpu: bool = False,
             describe=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            extra = describe(*args) if describe is not None else None
            with self.span(name, extra, cpu):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)

    def register(self, cls, kind: str) -> None:
        """Remember every ``cls`` instance so ``dump`` can read its counters."""
        original = cls.__init__

        @functools.wraps(original)
        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            self.instances[kind].append(instance)

        cls.__init__ = init

    def counters(self) -> dict:
        """Lifetime counters of every registered instance, summed by layer."""
        out = {"index": {}, "caching": {}, "recommend": {}}

        def add(kind: str, key: str, value) -> None:
            out[kind][key] = out[kind].get(key, 0) + value

        for index in self.instances["index"]:
            stats = index.stats()
            add("index", "postings_hits", stats["postings"]["hits"])
            add("index", "postings_misses", stats["postings"]["misses"])
            add("index", "cube_builds", stats["cube_builds"])
        for cache in self.instances["caching"]:
            for which, stats in (("result", cache.result_stats), ("group", cache.group_stats)):
                add("caching", f"{which}_hits", stats.hits)
                add("caching", f"{which}_misses", stats.misses)
        for builder in self.instances["recommend"]:
            for key, value in builder.batch_stats().items():
                add("recommend", key, value)
        return out

    def dump(self, path: str) -> None:
        payload = {"pid": os.getpid(), "spans": self.spans, "counters": self.counters()}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _route(handler) -> dict:
    """The benchmark op type of one HTTP request (from its method and path)."""
    path = handler.path.split("?", 1)[0]
    if handler.command == "POST" and path.endswith("/apply"):
        op = "step"
    elif handler.command == "POST" and path == "/sessions":
        op = "open"
    elif path == "/cluster/maps":
        op = "scan"
    elif "budget_ms=" in handler.path:
        op = "anytime"
    else:
        op = "other"
    return {"op": op}


def install() -> Recorder:
    """Wrap every layer's public calls; returns the recorder they feed."""
    from repro import datasets
    from repro.core.caching import CachingEngine
    from repro.core.generator import RMSetGenerator
    from repro.core.recommend import RecommendationBuilder
    from repro.core.session import ExplorationSession
    from repro.index.facade import IndexedDatabase

    rec = Recorder()
    rec.wrap(datasets, "yelp", "datasets.build")
    rec.wrap(IndexedDatabase, "group", "index.group")
    rec.register(IndexedDatabase, "index")
    rec.wrap(RMSetGenerator, "generate", "generator.generate")
    rec.wrap(RecommendationBuilder, "recommend", "recommend.recommend", cpu=True)
    rec.wrap(RecommendationBuilder, "recommend_anytime", "anytime.recommend")
    rec.register(RecommendationBuilder, "recommend")
    rec.wrap(CachingEngine, "rating_maps", "caching.rating_maps")
    rec.wrap(CachingEngine, "group", "caching.group")
    rec.register(CachingEngine, "caching")
    rec.wrap(ExplorationSession, "step", "session.step")
    return rec


def install_serving(rec: Recorder) -> None:
    """Add the serving layers (HTTP front, registry, protocol, cluster)."""
    from repro.cluster import worker as cluster_worker
    from repro.cluster.supervisor import WorkerPool
    from repro.server import app
    from repro.server.registry import SessionRegistry

    rec.wrap(app.SubDExRequestHandler, "_dispatch", "server.request",
             describe=lambda handler, method: _route(handler))
    for module in (app, cluster_worker):
        rec.wrap(module, "step_to_json", "server.serialise")
        rec.wrap(module, "rating_map_to_json", "server.serialise")
    rec.wrap(WorkerPool, "call", "cluster.call")
    rec.wrap(WorkerPool, "scatter_scan", "cluster.scatter")

    original_acquire = SessionRegistry.acquire

    @contextmanager
    def acquire(registry, session_id):
        # the span covers only entering: lookup plus the per-session lock wait
        with rec.span("server.registry_wait"):
            context = original_acquire(registry, session_id)
            managed = context.__enter__()
        try:
            yield managed
        except BaseException as error:
            if not context.__exit__(type(error), error, error.__traceback__):
                raise
        else:
            context.__exit__(None, None, None)

    SessionRegistry.acquire = acquire


def install_for_process() -> Recorder | None:
    """Install every shim when ``STEPBENCH_TRACE_DIR`` is set; dump at exit."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    rec = install()
    install_serving(rec)
    atexit.register(rec.dump, os.path.join(directory, f"spans-{os.getpid()}.json"))
    return rec
