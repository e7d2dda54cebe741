"""The served shapes: a ``repro serve`` subprocess and two closed-loop clients.

``Server`` launches the program on port 0, finds the port in its banner
and tears the whole process tree down again (front, workers, the
``subdex-<pid>-*`` shared-memory segments), also when a run fails.
``drive`` runs the timed phase: two client threads, one keep-alive
connection each, pulling scripts from one ``ServedFeed``.  Replies are
kept as bytes and checked only after the phase (``check``), so the
clients spend the phase sending and waiting.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

from common import (
    ANYTIME_BUDGET_MS,
    DATASET,
    DATASET_SEED,
    MAPS_K,
    MIX_CYCLE,
    RECOMMENDATIONS_O,
    SCALE,
    BenchError,
    ServedFeed,
    cpu_seconds,
    descendants,
    peak_rss_mb,
    program_env,
    purge_shm,
    recommendations_key,
    step_digest,
    stop_process_tree,
)
from ledger import Ledger, Sample

BANNER = re.compile(r"SubDEx serving \S+ on http://([\d.]+):(\d+)")
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 120.0
CLIENTS = 2


class Server:
    """One ``repro serve`` process tree, launched on construction."""

    def __init__(self, root: Path, work: Path, workers: int,
                 trace_dir: Path | None = None) -> None:
        self.workers = workers
        args = ["serve", "--dataset", DATASET, "--scale", str(SCALE),
                "--seed", str(DATASET_SEED), "--maps", str(MAPS_K),
                "--recommendations", str(RECOMMENDATIONS_O),
                "--host", "127.0.0.1", "--port", "0",
                "--workers", str(workers), "--log-level", "warning"]
        env = program_env(root)
        # keep the cluster's socket directory inside the checkout when the
        # socket path stays under the AF_UNIX length limit
        if len(str(work)) < 60:
            env["TMPDIR"] = str(work)
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            env["STEPBENCH_TRACE_DIR"] = str(trace_dir)
            command = [sys.executable, str(Path(__file__).with_name("launcher.py")), *args]
        self.log_path = work / f"server-{uuid.uuid4().hex[:8]}.log"
        self._log = open(self.log_path, "w")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        self.host, self.port = "", 0

    def wait_ready(self) -> None:
        """Block until the banner names the bound port."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = BANNER.search(self.log_path.read_text())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(
            f"server did not start (exit {self.proc.poll()}):\n"
            + self.log_path.read_text()[-2000:]
        )

    def pids(self) -> list[int]:
        return [self.proc.pid, *descendants(self.proc.pid)]

    def worker_pids(self) -> list[int]:
        if not self.workers:
            return []
        conn = Connection(self.host, self.port)
        try:
            sample = conn.call("other", "GET", "/cluster/workers")
        finally:
            conn.close()
        if not sample.ok:
            raise BenchError(f"GET /cluster/workers failed: {sample.failure}")
        return [w["pid"] for w in json.loads(sample.payload)["workers"]]

    def cpu_seconds(self) -> float:
        total = 0.0
        for pid in self.pids():
            try:
                total += cpu_seconds(pid)
            except OSError:
                pass
        return total

    def stop(self) -> None:
        try:
            stop_process_tree(self.proc)
        finally:
            purge_shm(self.proc.pid)
            self._log.close()


class Connection:
    """One keep-alive HTTP connection that records every call as a Sample."""

    def __init__(self, host: str, port: int) -> None:
        self._http = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        self._http.close()

    def call(self, op: str, method: str, path: str, body=None, **meta) -> Sample:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        start = time.perf_counter()
        try:
            self._http.request(method, path, body=data, headers=headers)
            response = self._http.getresponse()
            payload = response.read()
        except socket.timeout:
            return self._broken(op, start, "timeout", meta)
        except (OSError, http.client.HTTPException):
            return self._broken(op, start, "connection", meta)
        wall_ms = (time.perf_counter() - start) * 1e3
        server_ms = response.getheader("X-Server-Ms")
        failure = None
        if response.status == 503:
            failure = "shed_503"
        elif response.status >= 500:
            failure = "http_5xx"
        elif response.status >= 400:
            failure = "http_4xx"
        return Sample(op, start, wall_ms,
                      float(server_ms) if server_ms is not None else None,
                      failure, payload, meta)

    def _broken(self, op: str, start: float, failure: str, meta: dict) -> Sample:
        self._http.close()  # reconnects on the next request
        return Sample(op, start, (time.perf_counter() - start) * 1e3,
                      failure=failure, meta=meta)


class _Mix:
    """The shared position in ``MIX_CYCLE``, one tick per completed step."""

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def next(self) -> str:
        with self._lock:
            kind = MIX_CYCLE[self._count % len(MIX_CYCLE)]
            self._count += 1
            return kind


class _Sessions:
    """Which worker each client's session is on, and sessions to hand over.

    Under ``--workers`` client ``i`` is pinned to worker ``i``: a session
    it opens on another worker waits here for that worker's client
    instead of being thrown away.  Hash routing of two sessions onto two
    workers would otherwise put both on one worker half of the time, at
    random, and that luck dominated the spread of ``cluster_ui``.
    """

    def __init__(self) -> None:
        self._waiting: dict[int, list[str]] = {}
        self._current: dict[int, int | None] = {}
        self._lock = threading.Lock()

    def take(self, client: int) -> str | None:
        with self._lock:
            waiting = self._waiting.get(client)
            return waiting.pop(0) if waiting else None

    def give(self, worker: int, sid: str) -> None:
        with self._lock:
            self._waiting.setdefault(worker, []).append(sid)

    def place(self, client: int, worker: int | None) -> None:
        with self._lock:
            self._current[client] = worker

    def colocated(self, client: int) -> bool | None:
        """Whether another client's session is on this client's worker."""
        with self._lock:
            mine = self._current.get(client)
            if mine is None:
                return None
            return any(w == mine for c, w in self._current.items() if c != client)


def _open(conn: Connection, client: int, sessions: _Sessions, ledger: Ledger,
          deadline: float) -> tuple[str, int | None] | None:
    """A session for ``client``: a handed-over one, or a freshly opened one."""
    sid = sessions.take(client)
    if sid is not None:
        return sid, client
    while time.perf_counter() < deadline:
        # every script opens at the root, so every opening step has the
        # digest of script 0's opening step
        opened = ledger.add(conn.call("open", "POST", "/sessions", {}, script=0, index=0))
        if not opened.ok:
            continue
        sid = json.loads(opened.payload)["session_id"]
        summary = ledger.add(conn.call("read", "GET", f"/sessions/{sid}",
                                       check="summary", sid=sid))
        worker = json.loads(summary.payload).get("worker") if summary.ok else None
        if worker is None or worker == client:  # no workers, or the right one
            return sid, worker
        sessions.give(worker, sid)
    return None


def _client(conn: Connection, client: int, feed: ServedFeed, pool: list,
            deadline: float, ledger: Ledger, mix: _Mix, sessions: _Sessions) -> None:
    clock = time.perf_counter
    while clock() < deadline:
        opened = _open(conn, client, sessions, ledger, deadline)
        if opened is None:
            break
        sid, worker = opened
        sessions.place(client, worker)
        script = feed.next()
        base = f"/sessions/{sid}"
        finished = True
        for index, rank in enumerate(pool[script]["ranks"], 1):
            if clock() >= deadline:
                finished = False
                break
            step = ledger.add(conn.call("step", "POST", f"{base}/apply",
                                        {"recommendation": rank}, script=script,
                                        index=index, colocated=sessions.colocated(client)))
            if not step.ok:
                break
            ledger.add(conn.call("read", "GET", f"{base}/maps", check="maps", step=step))
            ledger.add(conn.call("read", "GET", f"{base}/recommendations",
                                 check="recommendations", step=step))
            kind = mix.next()
            if kind == "history":
                ledger.add(conn.call("read", "GET", f"{base}/history",
                                     check="history", n_steps=index + 1))
            elif kind == "anytime":
                ledger.add(conn.call(
                    "anytime", "GET",
                    f"{base}/recommendations?budget_ms={ANYTIME_BUDGET_MS}",
                    step=step))
            elif kind == "scan":
                ledger.add(conn.call("scan", "POST", "/cluster/maps",
                                     {"dataset": DATASET, "k": MAPS_K}))
        sessions.place(client, None)
        if finished:
            ledger.add(conn.call("close", "DELETE", base))


def open_first_session(server: Server) -> float:
    """Answer of the first opening step, seconds after launch (set-up time)."""
    conn = Connection(server.host, server.port)
    try:
        sample = conn.call("open", "POST", "/sessions", {})
        answered = time.perf_counter()
        if not sample.ok:
            raise BenchError(f"first opening step failed: {sample.failure} {sample.payload!r}")
        sid = json.loads(sample.payload)["session_id"]
        conn.call("close", "DELETE", f"/sessions/{sid}")
    finally:
        conn.close()
    return answered - server.launched


def drive(server: Server, pool: list, seed: int, seconds: float) -> dict:
    """The timed phase: ``CLIENTS`` closed-loop clients for ``seconds``."""
    ledger = Ledger()
    feed = ServedFeed(seed)
    mix = _Mix()
    sessions = _Sessions()
    connections = [Connection(server.host, server.port) for _ in range(CLIENTS)]
    cpu_start = server.cpu_seconds()
    start = time.perf_counter()
    threads = [
        threading.Thread(target=_client, name=f"stepbench-client-{i}",
                         args=(conn, i, feed, pool, start + seconds, ledger, mix, sessions))
        for i, conn in enumerate(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 4 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise BenchError(f"{thread.name} did not finish")
    end = time.perf_counter()
    for conn in connections:
        conn.close()
    pids = server.pids()
    workers = server.worker_pids()
    return {
        "ledger": ledger,
        "start": start,
        "end": end,
        "cpu_s": server.cpu_seconds() - cpu_start,
        "rss_mb": sum(peak_rss_mb(pid) for pid in pids),
        "rss_front_mb": peak_rss_mb(server.proc.pid),
        "rss_worker_mb": max((peak_rss_mb(pid) for pid in workers), default=0.0),
    }


def check(ledger: Ledger, pool: list) -> int:
    """Check every reply against the golden digests and its own step.

    A reply that does not match becomes a failed op (``digest``); returns
    the number of mismatches.
    """
    mismatches = 0
    root_size = first_scan = None  # every scan covers the root group
    for sample in ledger.samples:
        if not sample.ok or sample.op in ("close", "other"):
            continue
        body = json.loads(sample.payload)
        meta = sample.meta
        step = json.loads(meta["step"].payload)["step"] if "step" in meta else None
        if sample.op in ("open", "step"):
            good = step_digest(body["step"]) == pool[meta["script"]]["digests"][meta["index"]]
            if sample.op == "open":
                root_size = body["step"]["group_size"]
        elif meta.get("check") == "maps":
            good = body["maps"] == step["maps"]
        elif meta.get("check") == "recommendations":
            good = recommendations_key(body["recommendations"]) == \
                recommendations_key(step["recommendations"])
        elif meta.get("check") == "summary":
            good = body["session_id"] == meta["sid"] and body["n_steps"] == 1
        elif meta.get("check") == "history":
            good = len(body["steps"]) == meta["n_steps"]
        elif sample.op == "anytime":
            # an incomplete answer was cut by the budget or came from a lower
            # rung of the load-driven quality ladder; a complete one must be
            # exactly the step's stored recommendations
            quality = body.get("quality", {})
            meta["complete"] = bool(quality.get("complete"))
            good = "rung" in quality and (
                not meta["complete"]
                or recommendations_key(body["recommendations"])
                == recommendations_key(step["recommendations"])
            )
        else:  # scan
            first_scan = first_scan or body["maps"]
            good = (body["group_size"] == root_size and not body["degraded"]
                    and len(body["maps"]) > 0 and body["maps"] == first_scan)
        if not good:
            sample.failure = "digest"
            mismatches += 1
    return mismatches
