"""Anytime bench: the quality-vs-budget curve and the bounded-answer gate.

Drives one in-process server with budgeted recommendation requests and
measures the contract the anytime subsystem sells:

* a generous budget reproduces the unbudgeted answer exactly
  (``unbudgeted_equivalence`` must be 1.0);
* budgeted requests answer within ``budget + 250ms`` — the soft cut
  lands at a chunk boundary instead of overrunning
  (``within_budget_rate``);
* tighter budgets trade answer quality (sum of top-o utilities against
  the full run) for latency — the ``quality_ratio_b*`` curve;
* a partial answer's refinement token polls through to the full-quality
  result (``refinement_completed``).

The equivalence, refinement and generous-budget adherence claims are
asserted at the end of the bench; the CI ``chaos`` job runs it.
"""

from __future__ import annotations

import threading
import time

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

BUDGETS_MS = (50, 150, 500)
PROBES_PER_BUDGET = 4
GATE_BUDGET_MS = 500
ALLOWANCE_SECONDS = 0.25
TOP_O = 5


def _factory():
    database = bench_database("yelp")
    return SubDEx(database, SubDExConfig(recommender=bench_recommender_config()))


def _numbers(recommendations) -> list[tuple[str, float]]:
    return [(r["description"], r["utility"]) for r in recommendations]


def _utility_sum(recommendations) -> float:
    return sum(r["utility"] for r in recommendations)


def _run():
    # a sky-high latency target pins the controller to FULL: this bench
    # isolates the budget axis (the rung controller has its own tests)
    config = ServerConfig(anytime_latency_target_ms=1e9)
    server = build_server({"yelp": _factory}, port=0, config=config)
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()

    curve: dict[int, dict[str, float]] = {}
    latencies: list[float] = []
    try:
        with SubDExClient(server.url, timeout=60.0) as client:
            session = client.create_session(dataset="yelp")

            # the unbudgeted path serves the stored step answer; a generous
            # budget at the same (default) o must reproduce it exactly
            plain = session.recommendations()
            generous_default = session.recommend(budget_ms=600_000)
            equivalent = (
                generous_default["quality"]["complete"]
                and _numbers(generous_default["recommendations"])
                == _numbers(plain)
            )

            # the full-quality top-o is the oracle the curve compares against
            generous = session.recommend(o=TOP_O, budget_ms=600_000)
            assert generous["quality"]["complete"], "oracle run must finish"
            full_sum = _utility_sum(generous["recommendations"])

            for budget_ms in BUDGETS_MS:
                bound = budget_ms / 1000.0 + ALLOWANCE_SECONDS
                ratios: list[float] = []
                within = 0
                worst = 0.0
                for _ in range(PROBES_PER_BUDGET):
                    started = time.perf_counter()
                    payload = session.recommend(o=TOP_O, budget_ms=budget_ms)
                    elapsed = time.perf_counter() - started
                    latencies.append(elapsed)
                    worst = max(worst, elapsed)
                    if elapsed <= bound:
                        within += 1
                    ratios.append(
                        _utility_sum(payload["recommendations"]) / full_sum
                        if full_sum
                        else 1.0
                    )
                    # drain this probe's background refinement so it does
                    # not steal CPU from the next timed probe
                    if payload["refinement"] is not None:
                        session.wait_for_refinement(
                            payload["refinement"]["token"], timeout=120.0
                        )
                curve[budget_ms] = {
                    "quality_ratio": sum(ratios) / len(ratios),
                    "within_rate": within / PROBES_PER_BUDGET,
                    "worst_s": worst,
                }

            # a starved budget forces a partial; its token must refine
            # through to the full answer
            starved = session.recommend(o=TOP_O, budget_ms=1)
            if starved["refinement"] is None:
                refinement_completed = 1.0  # finished inside 1ms: nothing to do
            else:
                refined = session.wait_for_refinement(
                    starved["refinement"]["token"], timeout=120.0
                )
                refinement_completed = float(
                    refined["status"] == "done"
                    and refined["quality"]["complete"] is True
                )
            session.close()
    finally:
        server.graceful_shutdown()
        serve_thread.join(10.0)

    return {
        "curve": curve,
        "latencies": latencies,
        "equivalence": 1.0 if equivalent else 0.0,
        # the gated bound: every probe at the gate budget answered within
        # budget + allowance (tighter budgets stay informational — their
        # first chunk can dominate a tiny budget on a slow machine)
        "within_budget_rate": curve[GATE_BUDGET_MS]["within_rate"],
        "refinement_completed": refinement_completed,
    }


def _report_text(results: dict) -> str:
    rows = [
        [
            f"budget {budget_ms}ms",
            entry["quality_ratio"],
            entry["within_rate"],
            entry["worst_s"],
        ]
        for budget_ms, entry in sorted(results["curve"].items())
    ]
    summary = latency_summary(results["latencies"])
    return (
        f"== Anytime: quality vs budget over {PROBES_PER_BUDGET} probes/budget "
        f"(top-{TOP_O}, +{ALLOWANCE_SECONDS * 1000:.0f}ms allowance) ==\n"
        + format_table(
            ["budget", "quality ratio", "within rate", "worst (s)"],
            rows,
            "{:.4f}",
        )
        + f"\nunbudgeted equivalence: {results['equivalence']:.0f}"
        + f"\nrefinement completed:   {results['refinement_completed']:.0f}"
        + f"\nlatency p50/p95 (s):    {summary['p50']:.4f} / {summary['p95']:.4f}"
    )


def test_anytime_budget_curve(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = _report_text(results)
    summary = latency_summary(results["latencies"])
    metrics: dict[str, object] = {
        "within_budget_rate": Metric(
            results["within_budget_rate"],
            unit="ratio",
            higher_is_better=True,
            portable=True,
        ),
        "unbudgeted_equivalence": Metric(
            results["equivalence"],
            unit="ratio",
            higher_is_better=True,
            portable=True,
        ),
        "refinement_completed": Metric(
            results["refinement_completed"],
            unit="ratio",
            higher_is_better=True,
            portable=True,
        ),
        "latency_p95_s": summary["p95"],
    }
    for budget_ms, entry in sorted(results["curve"].items()):
        metrics[f"quality_ratio_b{budget_ms}"] = Metric(
            entry["quality_ratio"],
            unit="ratio",
            higher_is_better=None,  # informational: the shape of the curve
            portable=True,
        )
    report(
        "anytime",
        text,
        metrics=metrics,
        config={
            "budgets_ms": list(BUDGETS_MS),
            "probes_per_budget": PROBES_PER_BUDGET,
            "allowance_seconds": ALLOWANCE_SECONDS,
            "top_o": TOP_O,
        },
    )

    # the acceptance bar, asserted at bench time
    assert results["equivalence"] == 1.0
    assert results["refinement_completed"] == 1.0
    # the generous budget never overruns its bound
    assert results["curve"][GATE_BUDGET_MS]["within_rate"] == 1.0
    for budget_ms, entry in results["curve"].items():
        assert 0.0 <= entry["quality_ratio"] <= 1.0 + 1e-9, budget_ms


if __name__ == "__main__":
    print(_report_text(_run()))
