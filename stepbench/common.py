"""Shared pieces of the exploration-step benchmark.

Everything here is plain standard library so the orchestrator can run,
and fail cleanly, without importing the program under test.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import signal
import subprocess
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

# -- shared inputs: one dataset, one engine configuration ---------------------
DATASET = "yelp"
DATASET_SEED = 0  # the ``python -m repro serve`` default
SCALE = 0.3
MAPS_K = 3
RECOMMENDATIONS_O = 3
MAX_VALUES_PER_ATTRIBUTE = 6

# -- the script pool ---------------------------------------------------------
POOL_SEED = 20210620
POOL_SIZE = 48
SCRIPT_STEPS = 6

# -- the per-step mix --------------------------------------------------------
#: Every step adds one of these at the step's position in a cycle of four.
MIX_CYCLE = ("none", "history", "anytime", "scan")
ANYTIME_BUDGET_MS = 1000
#: In the served shapes every third script repeats an earlier one.
REPEAT_EVERY = 3
ZIPF_EXPONENT = 1.0
STEP_LIMIT_MS = 500.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (the run exits non-zero)."""


def repo_root() -> Path:
    """The checkout the benchmark runs in: the working directory."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source at {root / 'src' / 'repro'}; "
            "run from the root of a full checkout"
        )
    return root


def program_env(root: Path) -> dict[str, str]:
    """Environment for a process running the program from ``src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def scratch_dir(root: Path) -> Path:
    """A fresh per-run directory under ``.bench_build`` in the checkout."""
    base = root / ".bench_build" / "stepbench"
    base.mkdir(parents=True, exist_ok=True)
    path = base / f"run-{os.getpid()}-{time.time_ns()}"
    path.mkdir()
    return path


# -- statistics ---------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100); 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- output digests ------------------------------------------------------------
def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def recommendations_key(recommendations) -> list:
    """The parts of a numbered recommendation list that must reproduce."""
    return [
        [r["number"], r["kind"], r["utility"], r["target"]] for r in recommendations
    ]


def step_digest(step: dict) -> str:
    """Digest of one step payload (``step_to_json`` form).

    Covers the criteria, the selected maps with their histograms and
    utilities, and the recommended operations with their utilities —
    everything a user sees — and nothing timing-dependent.
    """
    body = {
        "index": step["index"],
        "criteria": step["criteria"],
        "group_size": step["group_size"],
        "maps": step["maps"],
        "recommendations": recommendations_key(step["recommendations"]),
    }
    return hashlib.sha256(_canonical(body).encode()).hexdigest()[:20]


# -- scripts -------------------------------------------------------------------
def load_pool() -> list[dict]:
    """The committed script pool: per script its ranks and step digests."""
    try:
        data = json.loads(GOLDEN_PATH.read_text())
    except OSError as error:
        raise BenchError(f"cannot read {GOLDEN_PATH}: {error}") from error
    pool = data["scripts"]
    if len(pool) != POOL_SIZE:
        raise BenchError(f"{GOLDEN_PATH} holds {len(pool)} scripts, want {POOL_SIZE}")
    return pool


def library_order(seed: int) -> list[int]:
    """Every pool script once, in a seed-drawn order."""
    order = list(range(POOL_SIZE))
    random.Random(seed).shuffle(order)
    return order


class ServedFeed:
    """Thread-safe script sequence for the served shapes.

    Fresh scripts come in a seed-drawn order; every ``REPEAT_EVERY``-th
    script instead repeats one already handed out, picked Zipf-style by
    first-use rank, so a fixed share (one in ``REPEAT_EVERY``) of scripts
    retrace an earlier path and can hit the server's shared caches.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._fresh = library_order(seed)
        self._used: list[int] = []
        self._count = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            self._count += 1
            if self._used and (self._count % REPEAT_EVERY == 0 or not self._fresh):
                weights = [1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(len(self._used))]
                return self._rng.choices(self._used, weights)[0]
            script = self._fresh.pop(0)
            self._used.append(script)
            return script


# -- processes -------------------------------------------------------------------
def read_proc_status(pid: int) -> dict[str, str]:
    fields = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in MiB."""
    kib = read_proc_status(pid).get("VmHWM", "0 kB").split()[0]
    return int(kib) / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> list[int]:
    """Live descendant pids of ``pid`` (children first)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(0), [])
        found.extend(children)
        frontier.extend(children)
    return found


def stop_process_tree(proc: subprocess.Popen, grace: float = 15.0) -> None:
    """SIGTERM ``proc``, wait, then SIGKILL it and anything it left behind."""
    children = descendants(proc.pid) if proc.poll() is None else []
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    for pid in children:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    deadline = time.monotonic() + 5.0
    while children and time.monotonic() < deadline:
        children = [pid for pid in children if Path(f"/proc/{pid}").exists()
                    and "Z" not in read_proc_status(pid).get("State", "Z")]
        time.sleep(0.02)


def purge_shm(owner_pid: int) -> int:
    """Unlink ``subdex-<owner_pid>-*`` shared-memory segments; their count."""
    removed = 0
    shm = Path("/dev/shm")
    if shm.is_dir():
        for segment in shm.glob(f"subdex-{owner_pid}-*"):
            try:
                segment.unlink()
                removed += 1
            except OSError:
                pass
    return removed


# -- environment record -------------------------------------------------------------
def environment(root: Path) -> dict:
    """What a result needs to be compared with another one."""
    try:
        # the ceiling stops git from reporting an enclosing repository's sha
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "source_sha256": source.hexdigest()[:16],
        "machine": platform.machine(),
    }
