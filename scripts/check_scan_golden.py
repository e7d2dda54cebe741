"""Replay recorded stateless scans in-process and check their body digests.

Usage, from the checkout root::

    PYTHONPATH=src python3 scripts/check_scan_golden.py           # check
    PYTHONPATH=src python3 scripts/check_scan_golden.py --record  # re-record

``POST /cluster/maps`` runs the ``maps.scan`` op.  This script runs that op
through :class:`~repro.server.app.SessionService` on stepbench's dataset
and engine (``stepbench/library.py``) for every case of
``scripts/scan_golden.json`` — the root plus seeded one-pair, two-pair,
multi-valued and empty groups, each at the engine's default ``k`` and at
``k = 2`` — and compares the SHA-256 of each response body with the
recorded digest.  Bodies are serialised as the server sends them but with
sorted keys: a criteria object lists its pairs in ``frozenset`` order,
which follows the process's string-hash seed.  Exits 1 on any
mismatch, naming the case.  ``--record`` draws the cases afresh and
rewrites the fixture; record only on a commit whose scan bytes are known
good.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "stepbench")]

from common import DATASET  # noqa: E402
from library import build_engine  # noqa: E402

from repro.core.caching import CachingEngine  # noqa: E402
from repro.db.types import ColumnType  # noqa: E402
from repro.server.app import SessionService  # noqa: E402
from repro.server.registry import SessionRegistry  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "scan_golden.json"
SEED = 20261018
#: groups drawn per shape (the root is always the first case)
SHAPES = (("one-pair", 14), ("two-pair", 10), ("multi-valued", 5), ("empty", 1))
KS = (None, 2)


def _draw_cases(database) -> list[dict]:
    """The root plus seeded groups of every shape, each at every ``k``."""
    rng = np.random.default_rng(SEED)
    categorical, multi = [], []
    for side, attribute in database.grouping_attributes():
        column = database.entity_table(side).column(attribute)
        if column.type is ColumnType.MULTI_VALUED:
            multi.append((side.value, attribute, sorted(column.members)))
        else:
            values = sorted(
                {str(v) for v in column.to_list() if v is not None}
            )
            categorical.append((side.value, attribute, values))

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def pair(pool, taken=()):
        side, attribute, values = pick(
            [entry for entry in pool if entry[:2] not in taken]
        )
        return side, attribute, pick(values)

    groups: list[dict] = [{"reviewer": {}, "item": {}}]
    for shape, count in SHAPES:
        for __ in range(count):
            criteria: dict = {"reviewer": {}, "item": {}}
            first = pair(categorical)
            criteria[first[0]][first[1]] = first[2]
            if shape == "two-pair":
                second = pair(categorical, taken={first[:2]})
                criteria[second[0]][second[1]] = second[2]
            elif shape == "multi-valued":
                side, attribute, value = pair(multi)
                criteria[side][attribute] = value
            elif shape == "empty":
                # a real pair plus a value no entity has
                side, attribute, __ = pair(categorical, taken={first[:2]})
                criteria[side][attribute] = "no such value"
            groups.append(criteria)
    return [{"criteria": c, "k": k} for c in groups for k in KS]


def _scan(service: SessionService, case: dict) -> tuple[int, dict]:
    body = {"dataset": DATASET, "criteria": case["criteria"]}
    if case["k"] is not None:
        body["k"] = case["k"]
    return service.run("maps.scan", {"body": body})


def main(argv: list[str]) -> int:
    record = argv == ["--record"]
    if argv and not record:
        print("usage: check_scan_golden.py [--record]", file=sys.stderr)
        return 2
    started = time.perf_counter()
    engine = CachingEngine(build_engine())
    service = SessionService(lambda name: engine, DATASET, SessionRegistry())
    if record:
        cases = _draw_cases(engine.database)
    else:
        cases = json.loads(FIXTURE.read_text())["cases"]
    mismatches = 0
    for number, case in enumerate(cases):
        status, body = _scan(service, case)
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode("utf-8")
        ).hexdigest()
        if record:
            case.update(status=status, group_size=body.get("group_size"),
                        digest=digest)
        elif (status, digest) != (case["status"], case["digest"]):
            mismatches += 1
            print(
                f"case {number} {json.dumps(case['criteria'])} k={case['k']}: "
                f"status {status} digest {digest}, "
                f"golden {case['status']} {case['digest']}"
            )
    elapsed = time.perf_counter() - started
    if record:
        FIXTURE.write_text(
            json.dumps({"dataset": DATASET, "cases": cases}, indent=1) + "\n"
        )
        print(f"recorded {len(cases)} scan digests to {FIXTURE.name} "
              f"({elapsed:.0f} s)")
        return 0
    print(f"{len(cases) - mismatches}/{len(cases)} scan digests match "
          f"({elapsed:.0f} s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
