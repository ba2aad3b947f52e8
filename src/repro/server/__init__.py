"""``repro.server`` — the asyncio serving gateway (stdlib + numpy).

A TCP front-end over :class:`repro.core.service.QueryService` that turns
the library into a long-running network service:

* **newline-delimited JSON protocol** (:mod:`repro.server.protocol`)
  with the verbs ``ping``, ``query``, ``batch``, ``stats``,
  ``metrics``, ``reload``, ``health``, ``ready``;
* **zero-copy binary protocol** (:mod:`repro.server.binproto`) —
  length-prefixed CRC-checked frames carrying packed ``(u32, u32)``
  pair arrays in and packed answer bitmaps out, negotiated per
  connection by a magic preamble (JSON stays the default), evaluated
  by the buffer-reusing :class:`~repro.core.fastkernel.FastKernel`
  without per-pair Python objects;
* **cross-connection micro-batching**
  (:class:`repro.server.batcher.MicroBatcher`) — queries from every
  open connection coalesce into one buffer and flush on a size or
  deadline trigger, so concurrent clients share single
  ``query_batch()`` kernel invocations;
* **admission control / backpressure** — a bounded in-flight queue
  with a configurable full-queue policy (``block`` or ``shed`` with an
  explicit ``overloaded`` error reply), per-connection request caps,
  and per-request timeouts;
* **hot index swap** — the ``reload`` verb rebuilds (or warm-starts
  from a saved index file) on a background thread and atomically swaps
  the serving :class:`~repro.core.service.QueryService`, so index
  updates never block readers;
* **observability** — everything rides on the :mod:`repro.obs` metrics
  registry (:class:`~repro.server.server.ServerMetrics`): per-request
  trace IDs with per-stage spans (parse → admission → queue_wait →
  kernel → serialize), a size-rotated structured JSON access log
  carrying trace and stage timings, a top-K slow-query log, a
  ``stats`` verb returning server counters, stage percentiles, batcher
  occupancy histograms, and ``ServiceMetrics.as_dict()``, plus a
  ``metrics`` verb and an optional HTTP ``GET /metrics`` endpoint
  (``ServerConfig.metrics_port``) serving the Prometheus text
  exposition — see ``docs/OBSERVABILITY.md``;
* **resilience** — ``health``/``ready`` probe verbs, graceful shutdown
  with a connection-drain deadline, degraded mode (a failed ``reload``
  keeps the last good index and reports ``status: degraded``), a
  :class:`~repro.server.server.Supervisor` restart loop with capped
  exponential backoff, and client-side
  :class:`~repro.server.client.RetryPolicy` (reconnect, idempotent
  retries, per-attempt timeouts, circuit breaker, error taxonomy).
  The fault injectors these are tested against live in
  :mod:`repro.testing`;
* **multi-process worker fleet** —
  :class:`~repro.server.router.WorkerFleet` (``serve --workers N``)
  spawns N worker processes that attach the index from shared memory
  (:mod:`repro.core.shm`) instead of rebuilding, share one port via
  ``SO_REUSEPORT`` accept sharding, hot-swap generations together on
  ``reload``, and sit under a worker-pool supervisor with
  liveness probing (dead *and* hung workers are replaced).

:class:`~repro.server.client.ReachClient` is the synchronous client
used by the CLI and the tests, and :mod:`repro.server.loadgen` is the
open-loop multi-connection load generator behind
``repro-reach loadgen`` and the ``repro-reach smoke`` scenarios.
"""

from repro.server.batcher import MicroBatcher, OverloadedError
from repro.server.binproto import BINARY_CODEC, MAGIC_LINE, BinaryCodec
from repro.server.client import (
    BinaryReachClient,
    CircuitOpenError,
    ReachClient,
    RetryPolicy,
    ServerReplyError,
)
from repro.server.loadgen import LoadgenResult, run_loadgen
from repro.server.protocol import ProtocolError
from repro.server.server import (
    ReachServer,
    ServerConfig,
    ServerMetrics,
    ServerThread,
    Supervisor,
)
from repro.server.router import FleetError, WorkerFleet

__all__ = [
    "BINARY_CODEC",
    "BinaryCodec",
    "BinaryReachClient",
    "MAGIC_LINE",
    "CircuitOpenError",
    "FleetError",
    "MicroBatcher",
    "OverloadedError",
    "ProtocolError",
    "ReachClient",
    "ReachServer",
    "RetryPolicy",
    "ServerConfig",
    "ServerMetrics",
    "ServerReplyError",
    "ServerThread",
    "Supervisor",
    "WorkerFleet",
    "LoadgenResult",
    "run_loadgen",
]
