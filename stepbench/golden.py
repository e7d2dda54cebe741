"""Regenerate ``golden.json``: the script pool and its expected step digests.

Usage, from the checkout root::

    PYTHONPATH=src python3 stepbench/golden.py

Each script opens a session at the root and takes ``SCRIPT_STEPS`` steps,
each applying the recommendation whose rank is drawn uniformly from those
returned.  The ranks and the digest of every step (opening step first)
are recorded from the library path; the served shapes must reproduce
them.  Regenerate only when a change is meant to alter exploration
results, and say so in that change.
"""

from __future__ import annotations

import json
import random
import sys
import time

from common import GOLDEN_PATH, POOL_SEED, POOL_SIZE, SCALE, SCRIPT_STEPS, DATASET
from library import build_engine, record_digest


def main() -> int:
    started = time.perf_counter()
    engine = build_engine()
    scripts = []
    for number in range(POOL_SIZE):
        rng = random.Random(f"{POOL_SEED}-{number}")
        session = engine.session()
        record = session.step(None, with_recommendations=True)
        ranks, digests = [], [record_digest(record)]
        for _ in range(SCRIPT_STEPS):
            if not record.recommendations:
                break
            rank = rng.randrange(len(record.recommendations)) + 1
            record = session.step(
                record.recommendations[rank - 1].operation, with_recommendations=True
            )
            ranks.append(rank)
            digests.append(record_digest(record))
        scripts.append({"ranks": ranks, "digests": digests})
        print(f"script {number}: ranks {ranks}", file=sys.stderr)
    payload = {
        "dataset": DATASET,
        "scale": SCALE,
        "pool_seed": POOL_SEED,
        "scripts": scripts,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
