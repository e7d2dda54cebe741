"""Benchmark harness utilities (S18).

Small, dependency-free helpers the ``benchmarks/`` suite shares: wall-clock
timing of engine steps, parameter sweeps, and aligned table / series
printing so every bench can put the paper's reported numbers next to the
measured ones.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from ..perf.benchjson import Metric, write_bench_json

__all__ = [
    "Metric",
    "Timer",
    "time_call",
    "Sweep",
    "format_table",
    "format_series",
    "latency_summary",
    "paper_vs_measured",
    "percentile",
    "report",
]

T = TypeVar("T")


class Timer:
    """Accumulating wall-clock timer with mean/total reporting."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._started: float | None = None

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._started is not None
        self._samples.append(time.perf_counter() - self._started)
        self._started = None

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    @property
    def total(self) -> float:
        return float(sum(self._samples))

    @property
    def mean(self) -> float:
        return float(np.mean(self._samples)) if self._samples else float("nan")


def time_call(fn: Callable[[], T], repeats: int = 1) -> tuple[T, float]:
    """Run ``fn`` ``repeats`` times; return (last result, mean seconds)."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    timer = Timer()
    result: T
    for __ in range(repeats):
        with timer:
            result = fn()
    return result, timer.mean


@dataclass
class Sweep:
    """A one-dimensional parameter sweep producing a printable series.

    ``rows[variant][x]`` collects the measured value for each variant at
    each sweep point.
    """

    parameter: str
    points: tuple = ()
    rows: dict[str, dict[object, float]] = field(default_factory=dict)

    def record(self, variant: str, point: object, value: float) -> None:
        self.rows.setdefault(variant, {})[point] = value
        if point not in self.points:
            self.points = tuple(list(self.points) + [point])

    def series(self, variant: str) -> list[float]:
        return [self.rows.get(variant, {}).get(p, float("nan")) for p in self.points]

    def format(self, value_fmt: str = "{:.4f}") -> str:
        return format_series(
            self.parameter, self.points, self.rows, value_fmt=value_fmt
        )


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) of ``samples`` (NaN when empty)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if not samples:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def latency_summary(samples: Sequence[float]) -> dict[str, float]:
    """Headline latency statistics for a load run: n, mean, p50, p95, max.

    The shared shape for throughput benches and the serving layer's
    reports, so every latency table reads the same way.
    """
    return {
        "n": float(len(samples)),
        "mean": float(np.mean(samples)) if samples else float("nan"),
        "p50": percentile(samples, 50.0),
        "p95": percentile(samples, 95.0),
        "max": float(np.max(samples)) if samples else float("nan"),
    }


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    value_fmt: str = "{:.3f}",
) -> str:
    """An aligned plain-text table; floats formatted with ``value_fmt``."""
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(value_fmt.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(str(headers[j])), *(len(r[j]) for r in rendered))
        if rendered
        else len(str(headers[j]))
        for j in range(len(headers))
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for cells in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def format_series(
    parameter: str,
    points: Sequence[object],
    rows: Mapping[str, Mapping[object, float]],
    value_fmt: str = "{:.4f}",
) -> str:
    """A figure-style series table: one column per sweep point."""
    headers = [parameter] + [str(p) for p in points]
    body = []
    for variant, values in rows.items():
        body.append(
            [variant]
            + [
                value_fmt.format(values[p]) if p in values else "—"
                for p in points
            ]
        )
    return format_table(headers, body, value_fmt)


def paper_vs_measured(
    title: str,
    paper: Mapping[str, object],
    measured: Mapping[str, object],
    note: str = "",
) -> str:
    """Side-by-side comparison block printed by every bench."""
    keys = list(paper)
    for key in measured:
        if key not in paper:
            keys.append(key)
    rows = [[k, paper.get(k, "—"), measured.get(k, "—")] for k in keys]
    table = format_table(["quantity", "paper", "measured"], rows, "{:.3f}")
    parts = [f"== {title} ==", table]
    if note:
        parts.append(f"note: {note}")
    return "\n".join(parts)


def report(
    name: str,
    text: str,
    metrics: Mapping[str, Metric | float] | None = None,
    config: Mapping[str, object] | None = None,
) -> str:
    """Print an experiment's table and persist it under the results dir.

    The directory defaults to ``benchmarks/results`` (override with the
    ``REPRO_BENCH_RESULTS`` environment variable); one ``<name>.txt`` file
    per experiment, so every table/figure regeneration leaves a reviewable
    artifact even when pytest captures stdout.

    When ``metrics`` is given, a schema-valid machine-readable
    ``BENCH_<name>.json`` (see :mod:`repro.perf.benchjson`) is written
    next to the ``.txt``.  Plain floats become non-portable
    lower-is-better seconds; pass :class:`~repro.perf.benchjson.Metric`
    for ratios/scores (portable) or paper-reproduction values
    (``higher_is_better=None`` — informational).  The bench's own asserts
    decide pass/fail; ``docs/PERFORMANCE.md`` lists where each claim is
    checked.
    """
    directory = Path(os.environ.get("REPRO_BENCH_RESULTS", "benchmarks/results"))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    written = str(path)
    if metrics:
        json_path = write_bench_json(
            name, metrics, config=config, directory=directory
        )
        written = f"{path}, {json_path}"
    print(f"\n{text}\n[written to {written}]")
    return str(path)
