"""Graceful shutdown of a sharded deployment.

``graceful_shutdown`` (and SIGTERM on ``python -m repro serve``) must
drain the workers — final checkpoint flush inside each worker — join the
processes, unlink every shared-memory segment, and exit 0, even with
requests in flight."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster.shm import SEGMENT_PREFIX, segment_owner_pid
from repro.core.engine import SubDEx, SubDExConfig
from repro.server import ServerConfig, ServerError, SubDExClient, build_server

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _segments_owned_by(pid: int) -> list[str]:
    return [
        name
        for name in os.listdir("/dev/shm")
        if name.startswith(SEGMENT_PREFIX) and segment_owner_pid(name) == pid
    ]


def test_graceful_shutdown_under_load(db_factory, tmp_path):
    checkpoint_dir = tmp_path / "checkpoints"
    server = build_server(
        {"synthetic": lambda: SubDEx(db_factory(seed=3), SubDExConfig())},
        config=ServerConfig(
            workers=2, checkpoint_dir=str(checkpoint_dir)
        ),
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()

    client = SubDExClient(server.url)
    sessions = [client.create_session() for __ in range(3)]
    owner_pid = os.getpid()
    assert _segments_owned_by(owner_pid)

    stop = threading.Event()
    served = [0]

    def hammer():
        with SubDExClient(server.url) as mine:
            while not stop.is_set():
                try:
                    mine.request("GET", f"/sessions/{sessions[0].id}/maps")
                    served[0] += 1
                except Exception:
                    return  # the server is draining/away: load ends here

    threads = [threading.Thread(target=hammer, daemon=True) for __ in range(2)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 10.0
    while served[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    assert served[0] > 0  # load is genuinely in flight

    server.graceful_shutdown(drain_seconds=8.0)
    stop.set()
    for thread in threads:
        thread.join(5.0)

    assert all(
        state["state"] == "stopped" and not state["alive"]
        for state in server.cluster.worker_states()
    )
    assert _segments_owned_by(owner_pid) == []
    # the drain flushed one final checkpoint per live session
    checkpoints = [
        path
        for worker_dir in checkpoint_dir.glob("worker-*")
        for path in worker_dir.iterdir()
    ]
    assert checkpoints
    client.close()


@pytest.mark.parametrize("workers", [2])
def test_serve_sigterm_drains_and_exits_zero(tmp_path, workers):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--dataset",
            "yelp",
            "--scale",
            "0.01",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--checkpoint-dir",
            str(tmp_path / "checkpoints"),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # log lines interleave with the banner on the merged stream
        url = cluster_line = None
        for __ in range(50):
            line = process.stdout.readline()
            if not line:
                break
            if "SubDEx serving" in line:
                url = line.strip().rsplit(" ", 1)[-1]
            elif "cluster:" in line:
                cluster_line = line
                break
        assert url and url.startswith("http://"), f"no banner, url={url!r}"
        assert cluster_line and f"cluster: {workers} workers" in cluster_line

        deadline = time.monotonic() + 60.0
        client = SubDExClient(url, timeout=10.0)
        while True:
            try:
                health = client.health()
                if health["cluster"]["up"] == workers:
                    break
            except (ServerError, OSError):
                pass
            if time.monotonic() > deadline:
                raise AssertionError("cluster never became healthy")
            time.sleep(0.2)

        session = client.create_session()
        assert session.maps()["maps"]
        assert _segments_owned_by(process.pid)

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    assert _segments_owned_by(process.pid) == []
