"""repro.cluster — multi-process serving with shared-memory data.

The cluster scales SubDEx serving across CPU cores without changing a
single result byte: an HTTP front spawns ``N`` worker processes, each
attaching the dataset's numpy columns as zero-copy views over
``multiprocessing.shared_memory`` segments.  Sessions are routed to
workers by consistent hash of the session id and run on each worker's
copy of the front's session service; a stateless ``POST /cluster/maps``
scan runs whole on one worker, with the same service op the front runs
without workers.

Layout:

* :mod:`repro.cluster.shm` — segment lifecycle: create/attach/unlink,
  ``atexit``/signal cleanup, stale-segment purge;
* :mod:`repro.cluster.partition` — database export/attach manifests;
* :mod:`repro.cluster.hashing` — the consistent-hash ring;
* :mod:`repro.cluster.ipc` — length-prefixed pickle frames over
  ``AF_UNIX`` sockets;
* :mod:`repro.cluster.worker` — the spawned worker process;
* :mod:`repro.cluster.supervisor` — the front's pool: spawn, route,
  heartbeat/restart, drain.
"""

from .hashing import HashRing
from .ipc import WorkerIPCError
from .partition import attach_database, share_database
from .shm import (
    SegmentRegistry,
    attach_array,
    purge_stale_segments,
    share_array,
)
from .supervisor import ClusterConfig, WorkerPool, WorkerUnavailableError
from .worker import WorkerSpec, worker_main

__all__ = [
    "ClusterConfig",
    "HashRing",
    "SegmentRegistry",
    "WorkerIPCError",
    "WorkerPool",
    "WorkerSpec",
    "WorkerUnavailableError",
    "attach_array",
    "attach_database",
    "purge_stale_segments",
    "share_array",
    "share_database",
    "worker_main",
]
