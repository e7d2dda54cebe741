"""Operation accounting: every attempted op, its latency and its fate."""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Sample:
    """One attempted operation.

    ``wall_ms`` is send-to-reply (or call-to-return) time; ``server_ms`` is
    the server's ``X-Server-Ms`` header when there is one.  ``failure``
    names why the op failed (``http_4xx``, ``http_5xx``, ``shed_503``,
    ``timeout``, ``connection``, ``digest``, ``error``) or is ``None``.
    ``start`` is on the ``perf_counter`` clock.
    """

    op: str
    start: float
    wall_ms: float
    server_ms: float | None = None
    failure: str | None = None
    payload: object = None
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None


class Ledger:
    """Thread-safe list of samples with per-op and per-failure counts."""

    def __init__(self) -> None:
        self.samples: list[Sample] = []
        self._lock = threading.Lock()

    def add(self, sample: Sample) -> Sample:
        with self._lock:
            self.samples.append(sample)
        return sample

    def merged(self, other: "Ledger") -> "Ledger":
        """A new ledger holding this one's samples, then ``other``'s."""
        both = Ledger()
        both.samples = self.samples + other.samples
        return both

    def of(self, *ops: str, ok_only: bool = True) -> list[Sample]:
        return [s for s in self.samples if s.op in ops and (s.ok or not ok_only)]

    def attempted(self) -> int:
        return len(self.samples)

    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def table(self) -> dict[str, dict]:
        """``{op: {"attempted", "failed", "failures": {kind: n}}}``."""
        out: dict[str, dict] = {}
        for sample in self.samples:
            row = out.setdefault(sample.op, {"attempted": 0, "failed": 0, "failures": Counter()})
            row["attempted"] += 1
            if not sample.ok:
                row["failed"] += 1
                row["failures"][sample.failure] += 1
        for row in out.values():
            row["failures"] = dict(row["failures"])
        return out
