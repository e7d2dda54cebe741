"""Exploration-step benchmark: one script pool through three deployment shapes.

Usage, from the root of a checkout::

    python3 stepbench/run.py --workload lib_explore|serve_ui|cluster_ui \\
        --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``stepbench/README.md``).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A
human-readable report (op ledger, environment) precedes it.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    STEP_LIMIT_MS,
    BenchError,
    environment,
    load_pool,
    percentile,
    program_env,
    ratio,
    repo_root,
    scratch_dir,
)
from ledger import Ledger, Sample  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Slack past ``--seconds`` for a child to finish its last step and report.
CHILD_GRACE_S = 90.0

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "read_ms_p50": "ms",
    "scan_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "steps_within_500ms": "share",
    "datasets.build_s": "s",
    "index.group_ms_p50": "ms",
    "index.postings_hit_rate": "share",
    "index.cube_builds_per_step": "count",
    "generator.generate_ms_p50": "ms",
    "recommend.recommend_ms_p50": "ms",
    "recommend.recommend_ms_p90": "ms",
    "recommend.cpu_per_wall": "ratio",
    "batch.candidates_per_step": "count",
    "batch.pruned_share": "share",
    "batch.materialized_per_step": "count",
    "batch.fallback_share": "share",
    "anytime.recommend_ms_p50": "ms",
    "anytime.incomplete_share": "share",
    "caching.result_hit_rate": "share",
    "caching.group_hit_rate": "share",
    "caching.rating_maps_ms_p50": "ms",
    "server.step_ms_p50": "ms",
    "server.read_ms_p50": "ms",
    "server.scan_ms_p50": "ms",
    "http.read_transport_ms_p50": "ms",
    "http.step_transport_ms_p50": "ms",
    "server.registry_wait_ms_p90": "ms",
    "server.serialise_ms_p50": "ms",
    "server.engine_share": "share",
    "engine.accounted_share": "share",
    "cluster.call_ms_p50": "ms",
    "cluster.scatter_ms_p50": "ms",
    "cluster.colocated_share": "share",
    "proc.cpu_ms_per_step": "ms",
    "proc.rss_mb.front": "MiB",
    "proc.rss_mb.worker": "MiB",
    "trace.steps_per_s_ratio": "ratio",
}

#: Spans whose time, as direct children of ``session.step``, is engine work.
ENGINE_LAYERS = ("index.group", "caching.group", "generator.generate",
                 "caching.rating_maps", "recommend.recommend")


class Skipped(Exception):
    """The workload cannot run on this machine; no result is printed."""


# -- end-to-end metrics ---------------------------------------------------------
def within_limit(ledger: Ledger) -> float:
    """Steps answered successfully within ``STEP_LIMIT_MS`` ÷ steps attempted.

    Reported, not gated: on a 2-core VM whose speed drifted twofold it sat
    on the knee of the step latency distribution and swung 0.06-0.93.
    """
    steps = ledger.of("step", ok_only=False)
    return ratio(sum(1 for s in steps if s.ok and s.wall_ms <= STEP_LIMIT_MS), len(steps))


def end_to_end(ledger: Ledger, phase: dict, setups: list[float]) -> dict:
    steps = ledger.of("step", ok_only=False)
    ok_steps = [s.wall_ms for s in steps if s.ok]
    if len(ok_steps) < 10:
        raise BenchError(f"only {len(ok_steps)} steps completed; run longer")
    reads = [s.wall_ms for s in ledger.of("read")]
    scans = [s.wall_ms for s in ledger.of("scan")]
    return {
        "setup_s": statistics.median(setups),
        "steps_per_s": len(ok_steps) / (phase["end"] - phase["start"]),
        "step_ms_p50": percentile(ok_steps, 50),
        "step_ms_p90": percentile(ok_steps, 90),
        "read_ms_p50": percentile(reads, 50),
        "scan_ms_p50": percentile(scans, 50),
        "peak_rss_mb": phase["rss_mb"],
    }


# -- per-layer metrics ------------------------------------------------------------
def load_spans(paths) -> tuple[list[dict], dict]:
    """Spans (as dicts keyed by ``(pid, id)``) and summed counters of dumps."""
    spans, counters = [], {"index": {}, "caching": {}, "recommend": {}}
    for path in paths:
        dump = json.loads(Path(path).read_text())
        pid = dump["pid"]
        for name, start, end, span_id, parent, extra in dump["spans"]:
            spans.append({"name": name, "start": start, "ms": (end - start) * 1e3,
                          "id": (pid, span_id),
                          "parent": (pid, parent) if parent is not None else None,
                          "extra": extra or {}})
        for layer, values in dump["counters"].items():
            for key, value in values.items():
                counters[layer][key] = counters[layer].get(key, 0) + value
    return spans, counters


def per_layer(spans: list[dict], counters: dict, phase: dict, traced: Ledger,
              untraced: dict) -> dict:
    """Every per-layer metric; 0.0 where the shape has no such layer."""
    by_id = {s["id"]: s for s in spans}
    window = [s for s in spans if phase["start"] <= s["start"] <= phase["end"]]

    def named(name: str) -> list[dict]:
        return [s for s in window if s["name"] == name]

    def ms(name: str, q: float, where=lambda s: True) -> float:
        return percentile([s["ms"] for s in named(name) if where(s)], q)

    def parent_name(span: dict) -> str | None:
        parent = by_id.get(span["parent"])
        return parent["name"] if parent else None

    steps = named("session.step")
    engine_ms = sum(s["ms"] for s in window if s["name"] in ENGINE_LAYERS
                    and parent_name(s) == "session.step")
    step_requests = [s for s in named("server.request")
                     if s["extra"].get("op") in ("open", "step")]

    serialise: dict = {}
    for span in named("server.serialise"):
        ancestor = by_id.get(span["parent"])
        while ancestor is not None and ancestor["name"] != "server.request":
            ancestor = by_id.get(ancestor["parent"])
        if ancestor is not None:
            serialise[ancestor["id"]] = serialise.get(ancestor["id"], 0.0) + span["ms"]

    recommends = named("recommend.recommend")
    idx, cache, batch = counters["index"], counters["caching"], counters["recommend"]
    lifetime_steps = sum(1 for s in spans if s["name"] == "session.step")

    def client(op: str, transport: bool = False) -> float:
        values = [s.wall_ms - s.server_ms if transport else s.server_ms
                  for s in traced.of(op) if s.server_ms is not None]
        return percentile(values, 50)

    anytime = traced.of("anytime")
    placed = [s.meta["colocated"] for s in traced.of("step")
              if s.meta.get("colocated") is not None]
    traced_steps = len(traced.of("step"))
    traced_rate = traced_steps / (phase["end"] - phase["start"])
    return {
        "steps_within_500ms": untraced["within_limit"],
        "datasets.build_s": max((s["ms"] for s in spans if s["name"] == "datasets.build"),
                                default=0.0) / 1e3,
        "index.group_ms_p50": ms("index.group", 50),
        "index.postings_hit_rate": ratio(idx.get("postings_hits", 0),
                                         idx.get("postings_hits", 0) + idx.get("postings_misses", 0)),
        "index.cube_builds_per_step": ratio(idx.get("cube_builds", 0), lifetime_steps),
        "generator.generate_ms_p50": ms(
            "generator.generate", 50,
            lambda s: parent_name(s) in ("session.step", "caching.rating_maps")),
        "recommend.recommend_ms_p50": ms("recommend.recommend", 50),
        "recommend.recommend_ms_p90": ms("recommend.recommend", 90),
        "recommend.cpu_per_wall": ratio(sum(s["extra"].get("cpu", 0.0) for s in recommends),
                                        sum(s["ms"] for s in recommends) / 1e3),
        "batch.candidates_per_step": ratio(batch.get("candidates", 0), batch.get("requests", 0)),
        "batch.pruned_share": ratio(batch.get("pruned", 0), batch.get("candidates", 0)),
        "batch.materialized_per_step": ratio(batch.get("materialized", 0),
                                             batch.get("requests", 0)),
        "batch.fallback_share": ratio(batch.get("fallback", 0), batch.get("requests", 0)),
        "anytime.recommend_ms_p50": ms("anytime.recommend", 50),
        "anytime.incomplete_share": ratio(sum(1 for s in anytime if not s.meta.get("complete")),
                                          len(anytime)),
        "caching.result_hit_rate": ratio(cache.get("result_hits", 0),
                                         cache.get("result_hits", 0) + cache.get("result_misses", 0)),
        "caching.group_hit_rate": ratio(cache.get("group_hits", 0),
                                        cache.get("group_hits", 0) + cache.get("group_misses", 0)),
        "caching.rating_maps_ms_p50": ms("caching.rating_maps", 50),
        "server.step_ms_p50": client("step"),
        "server.read_ms_p50": client("read"),
        "server.scan_ms_p50": client("scan"),
        "http.read_transport_ms_p50": client("read", transport=True),
        "http.step_transport_ms_p50": client("step", transport=True),
        "server.registry_wait_ms_p90": ms("server.registry_wait", 90),
        "server.serialise_ms_p50": percentile(serialise.values(), 50),
        "server.engine_share": ratio(engine_ms, sum(s["ms"] for s in step_requests)),
        "engine.accounted_share": ratio(engine_ms, sum(s["ms"] for s in steps)),
        "cluster.call_ms_p50": ms("cluster.call", 50),
        "cluster.scatter_ms_p50": ms("cluster.scatter", 50),
        "cluster.colocated_share": ratio(sum(placed), len(placed)),
        "proc.cpu_ms_per_step": ratio(untraced["cpu_s"] * 1e3, untraced["steps"]),
        "proc.rss_mb.front": untraced["rss_front_mb"],
        "proc.rss_mb.worker": untraced["rss_worker_mb"],
        "trace.steps_per_s_ratio": ratio(traced_rate, untraced["steps_per_s"]),
    }


# -- lib_explore --------------------------------------------------------------------
def _lib_child(root: Path, work: Path, seed: int, seconds: float,
               setup_only: bool = False, trace: bool = False):
    """Start a library child; returns it, its output path and its set-up time."""
    out = work / f"lib-{time.time_ns()}.json"
    command = [sys.executable, str(Path(__file__).with_name("lib_child.py")),
               "--out", str(out), "--seed", str(seed), "--seconds", str(seconds)]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command.append("--trace")
    launched = time.perf_counter()
    proc = subprocess.Popen(command, cwd=root, env=program_env(root),
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        line = b""
        while not line.startswith(b"READY"):
            if not selector.select(timeout=120.0):
                raise BenchError("library child did not get ready in 120 s")
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"library child exited during set-up ({proc.wait()})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        selector.close()
    return proc, out, time.perf_counter() - launched


def _lib_phase(root: Path, work: Path, seed: int, seconds: float, trace: bool = False):
    proc, out, setup = _lib_child(root, work, seed, seconds, trace=trace)
    try:
        code = proc.wait(timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("library child overran its phase")
    finally:
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"library child failed with exit code {code}")
    result = json.loads(out.read_text())
    ledger = Ledger()
    for op, start, wall_ms, failure in result["samples"]:
        ledger.add(Sample(op, start, wall_ms, failure=failure))
    phase = result["phase"]
    steps = len(ledger.of("step"))
    phase.update(rss_front_mb=phase["rss_mb"], rss_worker_mb=0.0, steps=steps,
                 within_limit=within_limit(ledger),
                 steps_per_s=steps / (phase["end"] - phase["start"]))
    return ledger, phase, setup, out


def lib_explore(root: Path, work: Path, args) -> tuple[Ledger, dict]:
    if args.trace:
        half = args.seconds / 2
        plain, untraced, _, _ = _lib_phase(root, work, args.seed, half)
        ledger, phase, _, out = _lib_phase(root, work, args.seed, half, trace=True)
        spans, counters = load_spans([f"{out}.spans"])
        return plain.merged(ledger), per_layer(spans, counters, phase, ledger, untraced)
    setups = []
    for _ in range(SETUPS - 1):
        proc, _, setup = _lib_child(root, work, args.seed, args.seconds, setup_only=True)
        proc.wait(timeout=60)
        proc.stdout.close()
        setups.append(setup)
    ledger, phase, setup, _ = _lib_phase(root, work, args.seed, args.seconds)
    setups.append(setup)
    return ledger, end_to_end(ledger, phase, setups)


# -- the served shapes ------------------------------------------------------------
def _served(root: Path, work: Path, args, workers: int) -> tuple[Ledger, dict]:
    import served

    if workers > 1 and (os.cpu_count() or 1) < workers:
        raise Skipped(f"cluster_ui needs {workers} CPUs, this machine has {os.cpu_count()}")
    pool = load_pool()

    def timed(seconds: float, trace_dir: Path | None = None):
        server = served.Server(root, work, workers, trace_dir)
        try:
            server.wait_ready()
            setup = served.open_first_session(server)
            phase = served.drive(server, pool, args.seed, seconds)
        finally:
            server.stop()
        ledger = phase.pop("ledger")
        mismatches = served.check(ledger, pool)
        steps = len(ledger.of("step"))
        phase.update(steps=steps, mismatches=mismatches, within_limit=within_limit(ledger),
                     steps_per_s=steps / (phase["end"] - phase["start"]))
        return ledger, phase, setup

    if args.trace:
        plain, untraced, _ = timed(args.seconds / 2)
        trace_dir = work / "trace"
        trace_dir.mkdir()
        ledger, phase, _ = timed(args.seconds / 2, trace_dir)
        spans, counters = load_spans(sorted(trace_dir.glob("spans-*.json")))
        if not spans:
            raise BenchError("the traced server wrote no spans")
        return plain.merged(ledger), per_layer(spans, counters, phase, ledger, untraced)

    setups = []
    for _ in range(SETUPS - 1):
        server = served.Server(root, work, workers)
        try:
            server.wait_ready()
            setups.append(served.open_first_session(server))
        finally:
            server.stop()
    ledger, phase, setup = timed(args.seconds)
    setups.append(setup)
    return ledger, end_to_end(ledger, phase, setups)


WORKLOADS = {
    "lib_explore": lib_explore,
    "serve_ui": lambda root, work, args: _served(root, work, args, workers=0),
    "cluster_ui": lambda root, work, args: _served(root, work, args, workers=2),
}


def report(ledger: Ledger, metrics: dict, units: dict, env: dict, trace: bool) -> None:
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{'op':8} {'attempted':>9} {'failed':>6}  failures")
    for op, row in sorted(ledger.table().items()):
        print(f"{op:8} {row['attempted']:>9} {row['failed']:>6}  {row['failures'] or ''}")
    for name, value in metrics.items():
        print(f"  {name:30} {value:12.4f} {units[name]}")
    if not trace:
        print(f"  {'steps_within_500ms':30} {within_limit(ledger):12.4f} share"
              " (reported, not gated)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the ``finally`` blocks tear servers down
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = None
    try:
        root = repo_root()
        load_pool()
        work = scratch_dir(root)
        ledger, metrics = WORKLOADS[args.workload](root, work, args)
        env = environment(root)
    except Skipped as reason:
        print(f"stepbench: skipped: {reason}", file=sys.stderr)
        return 3
    except BenchError as error:
        print(f"stepbench: {error}", file=sys.stderr)
        return 2
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    report(ledger, metrics, units, env, bool(args.trace))
    mismatches = sum(1 for s in ledger.samples if s.failure == "digest")
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": ledger.attempted(),
        "failed": ledger.failed(),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
