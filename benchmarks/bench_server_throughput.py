"""Serving-layer throughput bench (ISSUE 1: the concurrent exploration
service; ISSUE 6: the sharded cluster front).

Drives N concurrent simulated users against ONE in-process server: each
user creates a session, reads maps and recommendations, applies
recommendations, fetches the history and closes.  Reports end-to-end
request throughput and p50/p95 latency, and verifies via ``/metrics`` that
the traffic was observed and the shared per-dataset cache amortised work
across users.

The sharded variant (``--workers 1 2 4`` from the CLI, or the
``server_throughput_sharded`` pytest bench) repeats the same workload
against ``repro.cluster`` deployments with increasing worker counts and
reports per-count throughput, the workers=2 scaling ratio, and a
portable consistency metric asserting the cluster's ``POST /cluster/maps``
answers are byte-identical with the single-process server's.
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.bench import (
    Metric,
    bench_database,
    bench_recommender_config,
    format_table,
    latency_summary,
    report,
)
from repro.core.engine import SubDEx, SubDExConfig
from repro.server import ServerConfig, SubDExClient, build_server

N_USERS = 8
STEPS_PER_USER = 2  # recommendations applied after the opening step


def _run_load(
    n_users: int = N_USERS,
    steps_per_user: int = STEPS_PER_USER,
    workers: int = 0,
):
    database = bench_database("yelp")
    factory = lambda: SubDEx(  # noqa: E731
        database, SubDExConfig(recommender=bench_recommender_config())
    )
    server = build_server(
        {"yelp": factory},
        port=0,
        config=ServerConfig(max_sessions=n_users * 2, workers=workers),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    latencies: list[float] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_users)

    def timed(fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        with lock:
            latencies.append(time.perf_counter() - started)
        return result

    def user(user_id: int) -> int:
        with SubDExClient(server.url) as client:
            barrier.wait()
            session = timed(client.create_session)
            timed(session.maps)
            for __ in range(steps_per_user):
                recommendations = timed(session.recommendations)
                if recommendations:
                    timed(session.apply_recommendation, 1)
            timed(session.history)
            timed(session.close)
        return user_id

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=n_users) as pool:
        for future in [pool.submit(user, u) for u in range(n_users)]:
            future.result()
    elapsed = time.perf_counter() - started

    with SubDExClient(server.url) as client:
        metrics = client.metrics()
        # the consistency probe: a stateless root scan whose maps and
        # group size must not depend on the deployment shape
        probe = client.cluster_maps()
    snapshot = {"maps": probe["maps"], "group_size": probe["group_size"]}
    if workers:
        server.graceful_shutdown(drain_seconds=10.0)
    else:
        server.shutdown()
        server.server_close()
    return latencies, elapsed, metrics, snapshot


def _report(latencies, elapsed, metrics) -> str:
    summary = latency_summary(latencies)
    throughput = len(latencies) / elapsed
    result_cache = metrics["caches"]["yelp"]["result"]
    rows = [
        ["concurrent users", float(N_USERS)],
        ["requests", float(len(latencies))],
        ["wall seconds", elapsed],
        ["throughput (req/s)", throughput],
        ["latency p50 (s)", summary["p50"]],
        ["latency p95 (s)", summary["p95"]],
        ["latency mean (s)", summary["mean"]],
        ["result-cache hit rate", result_cache["hit_rate"]],
    ]
    return (
        f"== Server throughput: {N_USERS} concurrent simulated users ==\n"
        + format_table(["quantity", "value"], rows, "{:.4f}")
    )


def test_server_throughput(benchmark):
    latencies, elapsed, metrics, __ = benchmark.pedantic(
        _run_load, rounds=1, iterations=1
    )
    text = _report(latencies, elapsed, metrics)
    summary = latency_summary(latencies)
    report(
        "server_throughput",
        text,
        metrics={
            "throughput_rps": Metric(
                len(latencies) / elapsed, unit="req/s", higher_is_better=True
            ),
            "latency_p50_s": summary["p50"],
            "latency_p95_s": summary["p95"],
            "latency_mean_s": summary["mean"],
            "result_cache_hit_rate": Metric(
                metrics["caches"]["yelp"]["result"]["hit_rate"],
                unit="ratio", higher_is_better=True, portable=True,
            ),
        },
        config={"n_users": N_USERS, "steps_per_user": STEPS_PER_USER},
    )
    # /metrics saw the traffic…
    assert metrics["requests"]["total"] >= len(latencies)
    assert metrics["requests"]["by_endpoint"]["POST /sessions"]["count"] == N_USERS
    assert metrics["sessions"]["created"] == N_USERS
    # …and the shared cache amortised the identical opening steps
    assert metrics["caches"]["yelp"]["result"]["hits"] > 0
    assert len(latencies) / elapsed > 0


def _worker_counts() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_WORKERS", "1,2,4")
    return [int(part) for part in raw.replace(" ", ",").split(",") if part]


def _run_sweep(worker_counts: list[int]):
    """The sharded sweep: single-process reference, then each worker count.

    Returns ``(reference_run, {workers: run})`` where each run is the
    ``_run_load`` tuple.  The reference (workers=0, the in-process scan
    path) defines the bytes every sharded deployment must reproduce.
    """
    reference = _run_load(workers=0)
    runs = {count: _run_load(workers=count) for count in worker_counts}
    return reference, runs


def _sweep_report(reference, runs) -> tuple[str, dict, dict]:
    __, ref_elapsed, __, ref_snapshot = reference
    rows = [["workers=0 (in-process)", len(reference[0]) / ref_elapsed, 1.0]]
    metrics: dict[str, object] = {}
    consistent = 1.0
    throughput = {}
    for count, (latencies, elapsed, __, snapshot) in sorted(runs.items()):
        rps = len(latencies) / elapsed
        throughput[count] = rps
        if snapshot != ref_snapshot:
            consistent = 0.0
        rows.append([f"workers={count}", rps, 1.0 if snapshot == ref_snapshot else 0.0])
        metrics[f"throughput_w{count}_rps"] = Metric(
            rps, unit="req/s", higher_is_better=True
        )
    if 1 in throughput and 2 in throughput:
        metrics["scaling_w2_vs_w1"] = Metric(
            throughput[2] / throughput[1],
            unit="x",
            higher_is_better=True,
            portable=False,  # 1-CPU baseline boxes cannot scale
        )
    metrics["sharded_consistency"] = Metric(
        consistent, unit="ratio", higher_is_better=True, portable=True
    )
    text = (
        f"== Sharded server throughput: {N_USERS} users x "
        f"workers {sorted(runs)} ==\n"
        + format_table(
            ["deployment", "throughput (req/s)", "consistent"],
            rows,
            "{:.4f}",
        )
    )
    config = {
        "n_users": N_USERS,
        "steps_per_user": STEPS_PER_USER,
        "workers": sorted(runs),
        "cpu_count": os.cpu_count(),
    }
    return text, metrics, config


def _check_sweep(metrics) -> None:
    # the cluster's scan must reproduce the single-process bytes exactly
    assert metrics["sharded_consistency"].value == 1.0
    # acceptance: >=1.8x at --workers 2 on a machine that can actually
    # run two scans at once; single-CPU boxes report the ratio only
    scaling = metrics.get("scaling_w2_vs_w1")
    if scaling is not None and (os.cpu_count() or 1) >= 2:
        assert scaling.value >= 1.8, (
            f"workers=2 scaled only {scaling.value:.2f}x over workers=1"
        )


def test_server_throughput_sharded(benchmark):
    counts = _worker_counts()
    reference, runs = benchmark.pedantic(
        lambda: _run_sweep(counts), rounds=1, iterations=1
    )
    text, metrics, config = _sweep_report(reference, runs)
    report("server_throughput_sharded", text, metrics=metrics, config=config)
    _check_sweep(metrics)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        nargs="*",
        default=None,
        help="worker counts to sweep (e.g. --workers 1 2 4); "
        "omit for the single-process bench only",
    )
    arguments = parser.parse_args()
    if arguments.workers:
        swept_reference, swept = _run_sweep(arguments.workers)
        sweep_text, sweep_metrics, sweep_config = _sweep_report(
            swept_reference, swept
        )
        report(
            "server_throughput_sharded",
            sweep_text,
            metrics=sweep_metrics,
            config=sweep_config,
        )
        _check_sweep(sweep_metrics)
    else:
        latencies, elapsed, metrics, __ = _run_load()
        print(_report(latencies, elapsed, metrics))
