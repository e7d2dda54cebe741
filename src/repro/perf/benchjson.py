"""The unified benchmark result schema: ``BENCH_<name>.json``.

Every ``benchmarks/bench_*.py`` script reports a human-readable ``.txt``
table *and* a machine-readable JSON result with a fixed schema instead
of free-form prints (IDEBench's argument: interactive-system results must
be standardized and machine-comparable to mean anything across runs).

Schema (version 1)::

    {
      "schema_version": 1,
      "name": "index_speedup",              # bench identifier
      "created_at": 1754500000.0,           # unix seconds
      "git_sha": "db20b33..." | null,
      "env": {"python": ..., "platform": ..., "machine": ...,
              "cpu_count": ..., "hostname": ...},
      "config": {...},                      # bench-specific knobs
      "metrics": {
        "<metric>": {
          "value": 3.91,
          "unit": "x",
          "higher_is_better": true | false | null,
          "portable": true | false
        }, ...
      }
    }

``higher_is_better`` records which direction is better; ``null`` marks
an informational metric.  ``portable`` marks machine-independent metrics
(speedup ratios, accuracy scores, counts) that remain comparable across
hosts, unlike absolute wall-clock times.  A bench's pass/fail verdict is
its own asserts; the JSON is the record of what it measured.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "BENCH_FILE_PREFIX",
    "SCHEMA_VERSION",
    "BenchResult",
    "Metric",
    "bench_json_path",
    "env_fingerprint",
    "git_sha",
    "load_results_dir",
    "validate_bench_result",
    "write_bench_json",
]

SCHEMA_VERSION = 1
BENCH_FILE_PREFIX = "BENCH_"


@dataclass(frozen=True)
class Metric:
    """One measured quantity of a benchmark run.

    ``higher_is_better=None`` marks an informational metric with no
    better direction (e.g. a paper-reproduction score whose drift in
    *either* direction needs a human eye).  ``portable=True``
    marks values comparable across machines (ratios, rates, counts);
    absolute wall-clock metrics should leave it ``False``.
    """

    value: float
    unit: str = "s"
    higher_is_better: bool | None = False
    portable: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "value": float(self.value),
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "portable": self.portable,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Metric":
        return cls(
            value=float(payload["value"]),
            unit=str(payload.get("unit", "")),
            higher_is_better=payload.get("higher_is_better", False),
            portable=bool(payload.get("portable", False)),
        )


def git_sha(repo_dir: str | Path | None = None) -> str | None:
    """The current commit sha, or ``None`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_dir) if repo_dir else None,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    sha = completed.stdout.strip()
    return sha or None


def env_fingerprint() -> dict[str, Any]:
    """Enough environment to interpret (and distrust) absolute timings."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "hostname": socket.gethostname(),
    }


@dataclass
class BenchResult:
    """One benchmark run's machine-readable result."""

    name: str
    metrics: dict[str, Metric]
    config: dict[str, Any]
    git_sha: str | None = None
    created_at: float | None = None
    env: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "created_at": (
                self.created_at if self.created_at is not None else time.time()
            ),
            "git_sha": self.git_sha,
            "env": self.env if self.env is not None else env_fingerprint(),
            "config": dict(self.config),
            "metrics": {
                key: metric.to_dict() for key, metric in self.metrics.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchResult":
        errors = validate_bench_result(payload)
        if errors:
            raise ValueError(
                f"invalid bench result: {'; '.join(errors)}"
            )
        return cls(
            name=str(payload["name"]),
            metrics={
                key: Metric.from_dict(value)
                for key, value in payload["metrics"].items()
            },
            config=dict(payload["config"]),
            git_sha=payload.get("git_sha"),
            created_at=payload.get("created_at"),
            env=dict(payload.get("env") or {}),
        )


def validate_bench_result(payload: Any) -> list[str]:
    """Schema-check one ``BENCH_*.json`` payload; returns problem strings.

    An empty list means the payload is valid.  Used by the schema tests,
    :func:`write_bench_json` and :func:`load_results_dir`.
    """
    errors: list[str] = []
    if not isinstance(payload, Mapping):
        return ["payload is not a JSON object"]
    if payload.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {payload.get('schema_version')!r}"
        )
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"name must be a non-empty string, got {name!r}")
    created = payload.get("created_at")
    if not isinstance(created, (int, float)):
        errors.append(f"created_at must be a number, got {created!r}")
    sha = payload.get("git_sha")
    if sha is not None and not isinstance(sha, str):
        errors.append(f"git_sha must be a string or null, got {sha!r}")
    env = payload.get("env")
    if not isinstance(env, Mapping):
        errors.append("env must be an object")
    elif "python" not in env or "platform" not in env:
        errors.append("env must record at least python and platform")
    if not isinstance(payload.get("config"), Mapping):
        errors.append("config must be an object")
    metrics = payload.get("metrics")
    if not isinstance(metrics, Mapping) or not metrics:
        errors.append("metrics must be a non-empty object")
    else:
        for key, entry in metrics.items():
            where = f"metrics[{key!r}]"
            if not isinstance(entry, Mapping):
                errors.append(f"{where} is not an object")
                continue
            value = entry.get("value")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{where}.value must be a number, got {value!r}")
            elif value != value:  # NaN — strict JSON parsers reject it
                errors.append(f"{where}.value is NaN")
            if not isinstance(entry.get("unit", ""), str):
                errors.append(f"{where}.unit must be a string")
            direction = entry.get("higher_is_better", False)
            if direction not in (True, False, None):
                errors.append(
                    f"{where}.higher_is_better must be true/false/null, "
                    f"got {direction!r}"
                )
            if not isinstance(entry.get("portable", False), bool):
                errors.append(f"{where}.portable must be a boolean")
    return errors


def bench_json_path(directory: str | Path, name: str) -> Path:
    return Path(directory) / f"{BENCH_FILE_PREFIX}{name}.json"


def write_bench_json(
    name: str,
    metrics: Mapping[str, Metric | float],
    config: Mapping[str, Any] | None = None,
    directory: str | Path = "benchmarks/results",
) -> Path:
    """Write ``BENCH_<name>.json``; plain floats become seconds metrics."""
    normalised = {
        key: value if isinstance(value, Metric) else Metric(float(value))
        for key, value in metrics.items()
    }
    result = BenchResult(
        name=name,
        metrics=normalised,
        config=dict(config or {}),
        git_sha=git_sha(),
    )
    payload = result.to_dict()
    errors = validate_bench_result(payload)
    if errors:  # a writer bug must fail the bench, not leave a bad file
        raise ValueError(f"refusing to write invalid result: {errors}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = bench_json_path(directory, name)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    return path


def load_results_dir(
    directory: str | Path,
) -> tuple[dict[str, BenchResult], dict[str, list[str]]]:
    """Read every ``BENCH_*.json`` under ``directory``.

    Returns ``(results_by_name, problems_by_filename)`` — unparseable or
    schema-invalid files land in the second map instead of raising, so a
    caller can report *all* broken files at once.
    """
    results: dict[str, BenchResult] = {}
    problems: dict[str, list[str]] = {}
    directory = Path(directory)
    for path in sorted(directory.glob(f"{BENCH_FILE_PREFIX}*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            problems[path.name] = [f"unreadable: {error}"]
            continue
        errors = validate_bench_result(payload)
        if errors:
            problems[path.name] = errors
            continue
        result = BenchResult.from_dict(payload)
        results[result.name] = result
    return results, problems
