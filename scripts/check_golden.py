"""Replay every golden exploration step in-process and check its digest.

Usage, from the checkout root::

    PYTHONPATH=src python3 scripts/check_golden.py

Every script of the stepbench pool (``stepbench/golden.json``) opens a
session at the root and applies its recorded recommendation ranks, through
the same engine and digest as the ``lib_explore`` workload
(``stepbench/library.py``).  Each step's digest must equal the recorded
one.  A timed stepbench run reaches only part of the pool; this replays
all of it.  Exits 1 on any mismatch, naming the script and step.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "stepbench")]

from common import load_pool  # noqa: E402
from library import build_engine, record_digest  # noqa: E402


def main() -> int:
    started = time.perf_counter()
    pool = load_pool()
    engine = build_engine()
    checked = mismatches = 0
    for number, script in enumerate(pool):
        session = engine.session()
        record = session.step(None, with_recommendations=True)
        for index, expected in enumerate(script["digests"]):
            if index:
                rank = script["ranks"][index - 1]
                if rank > len(record.recommendations):
                    print(
                        f"script {number} step {index}: rank {rank} not among "
                        f"{len(record.recommendations)} recommendations"
                    )
                    mismatches += len(script["digests"]) - index
                    checked += len(script["digests"]) - index
                    break
                operation = record.recommendations[rank - 1].operation
                record = session.step(operation, with_recommendations=True)
            digest = record_digest(record)
            checked += 1
            if digest != expected:
                mismatches += 1
                print(f"script {number} step {index}: digest {digest}, golden {expected}")
    elapsed = time.perf_counter() - started
    print(f"{checked - mismatches}/{checked} golden digests match ({elapsed:.0f} s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
