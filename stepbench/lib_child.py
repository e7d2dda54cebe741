"""``lib_explore`` child: set the library up, then drive scripts in-process.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 stepbench/lib_child.py --out FILE --seed N --seconds S [--setup-only] [--trace]

Prints ``READY`` once the opening step of the first session has been
answered (the end of set-up), then runs the timed phase: one caller,
each pool script once in a seed-drawn order, every step
``session.step(op, with_recommendations=True)``, a history export after
every step and a one-shot ``SubDEx.rating_maps()`` scan of the root group
(the whole dataset) on every fourth.
Results, with each step checked against its golden digest, go to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import DATASET, MIX_CYCLE, library_order, load_pool, peak_rss_mb  # noqa: E402
from ledger import Ledger, Sample  # noqa: E402


def run_phase(engine, pool, seed: int, seconds: float, ledger: Ledger) -> dict:
    from repro.core.history import ExplorationLog
    from repro.core.modes import ExplorationMode, ExplorationPath

    records = []  # (script, step index, StepRecord) for the digest check
    order = library_order(seed)
    clock = time.perf_counter
    cpu_start = time.process_time()
    start = clock()
    deadline = start + seconds
    position = 0
    mix = 0
    first_scan = None  # every scan covers the same group, so must agree
    while clock() < deadline:
        script = order[position % len(order)]
        position += 1
        session = engine.session()
        t0 = clock()
        try:
            record = session.step(None, with_recommendations=True)
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            ledger.add(Sample("open", t0, (clock() - t0) * 1e3, failure="error",
                              meta={"error": repr(error)}))
            continue
        ledger.add(Sample("open", t0, (clock() - t0) * 1e3))
        records.append((script, 0, record))
        for index, rank in enumerate(pool[script]["ranks"], 1):
            if clock() >= deadline:
                break
            t0 = clock()
            try:
                operation = record.recommendations[rank - 1].operation
                record = session.step(operation, with_recommendations=True)
            except Exception as error:  # noqa: BLE001
                ledger.add(Sample("step", t0, (clock() - t0) * 1e3, failure="error",
                                  meta={"error": repr(error)}))
                break
            ledger.add(Sample("step", t0, (clock() - t0) * 1e3))
            records.append((script, index, record))

            t0 = clock()
            path = ExplorationPath(ExplorationMode.USER_DRIVEN, session.steps)
            exported = ExplorationLog.from_path(path, dataset=DATASET).to_json()
            wall_ms = (clock() - t0) * 1e3
            ok = len(json.loads(exported)["steps"]) == index + 1
            ledger.add(Sample("read", t0, wall_ms, failure=None if ok else "digest"))

            kind = MIX_CYCLE[mix % len(MIX_CYCLE)]
            mix += 1
            if kind == "scan":
                t0 = clock()
                result = engine.rating_maps()
                wall_ms = (clock() - t0) * 1e3
                maps = [rm.spec.describe() for rm in result.selected]
                first_scan = first_scan or maps
                ok = bool(maps) and maps == first_scan
                ledger.add(Sample("scan", t0, wall_ms, failure=None if ok else "digest"))
    end = clock()
    return {
        "start": start,
        "end": end,
        "cpu_s": time.process_time() - cpu_start,
        "rss_mb": peak_rss_mb(os.getpid()),
        "records": records,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import shims

        recorder = shims.install()
    from library import build_engine, record_digest

    engine = build_engine()
    engine.session().step(None, with_recommendations=True)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    os.dup2(2, 1)  # nobody reads our stdout any more; keep later output off the pipe

    pool = load_pool()
    ledger = Ledger()
    phase = run_phase(engine, pool, args.seed, args.seconds, ledger)
    # digest check after the timed phase, so it costs the phase nothing
    steps = iter(s for s in ledger.samples if s.op in ("open", "step") and s.ok)
    mismatches = 0
    for (script, index, record), sample in zip(phase.pop("records"), steps):
        if record_digest(record) != pool[script]["digests"][index]:
            sample.failure = "digest"
            mismatches += 1
    result = {
        "phase": phase,
        "mismatches": mismatches,
        "samples": [[s.op, s.start, s.wall_ms, s.failure] for s in ledger.samples],
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    if recorder is not None:
        recorder.dump(args.out + ".spans")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
