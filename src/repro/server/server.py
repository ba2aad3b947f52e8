"""The asyncio TCP gateway serving reachability queries.

:class:`ReachServer` listens on a TCP port, speaks the newline-delimited
JSON protocol of :mod:`repro.server.protocol`, and funnels every
``query``/``batch`` request — across *all* open connections — through
the :class:`~repro.server.batcher.MicroBatcher` lane of the catalog
entry it names, so concurrent clients share single
``QueryService.query_batch()`` kernel invocations.  The default index
is catalog entry 0: it serves, reloads and swaps through exactly the
same lanes and install path as every named tenant.

A connection may switch to the length-prefixed binary framing of
:mod:`repro.server.binproto` by sending its magic preamble as the first
request line; binary ``BATCH`` frames coalesce through each entry's
parallel :class:`_BinaryLane` (same admission knobs, same executor)
into ``QueryService.query_frames`` — packed pair bytes straight into
the buffer-reusing :class:`~repro.core.fastkernel.FastKernel`, packed
answer bitmaps straight out, no per-pair Python objects anywhere on
the path.

Concurrency model
-----------------
The event loop owns all protocol state; the numpy kernels run on a
dedicated worker thread (``run_in_executor``), which keeps the loop
responsive while a flush evaluates and lets the GIL-releasing numpy
sections overlap with socket I/O.  Index rebuilds triggered by the
``reload`` verb run on a *separate* single-thread executor, so a
rebuild never sits in front of query flushes; the swap itself is one
attribute assignment, and every flush snapshots the service exactly
once, so each flush is answered consistently by one index generation.
A replaced or dropped service is simply let go: it owns only memory,
freed once the last flush holding it returns.

Backpressure
------------
Three nested bounds keep memory finite under overload: the stream
reader's line limit (malformed giants fail fast), the per-connection
in-flight request cap (the handler stops reading new lines — and TCP
therefore stops the client — while a connection has
``max_conn_inflight`` unanswered requests), and the batcher's global
``max_pending`` admission queue with its ``block``/``shed`` policy.

Use :class:`ServerThread` to run a server on a background thread with
its own event loop (tests, benchmarks, the load generator's self-serve
mode); the CLI's ``repro-reach serve`` runs the asyncio loop in the
foreground.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.service import QueryService
from repro.exceptions import (IndexBudgetExceeded, QueryError,
                              ReproError)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import RECOVERY_BUCKETS, MetricsRegistry
from repro.obs.phases import PhaseProfiler
from repro.obs.prometheus import CONTENT_TYPE, render
from repro.obs.slo import SloEngine, SloObjective
from repro.obs.tracing import (BatchTicket, SlowQueryLog, SpanRecorder,
                               TraceIds)
from repro.server import binproto, protocol
from repro.server.batcher import MicroBatcher, OverloadedError
from repro.server.protocol import ProtocolError, Request
from repro.server.tenancy import (DEFAULT_INDEX_ID, CatalogEntry,
                                  CatalogService, TenantQuota)

__all__ = ["ReachServer", "ServerConfig", "ServerMetrics",
           "ServerThread", "Supervisor"]

# asyncio.timeout exists from 3.11; wait_for is the 3.10 fallback.
_asyncio_timeout = getattr(asyncio, "timeout", None)


@dataclass
class ServerConfig:
    """Tunables of one :class:`ReachServer`.

    The batching/backpressure knobs mirror the issue's serving design:
    ``max_batch`` pairs or ``max_delay`` seconds trigger a flush;
    ``max_pending``/``policy`` bound the admission queue; the
    per-connection cap and per-request timeout bound each client.
    """

    host: str = "127.0.0.1"
    #: Port to bind; ``0`` picks a free port (see ``ReachServer.port``).
    port: int = 0
    #: Micro-batch flush trigger: buffered pairs.
    max_batch: int = 512
    #: Micro-batch flush trigger: seconds after the first buffered pair.
    max_delay: float = 0.002
    #: Admission bound on in-flight pairs across all connections.
    max_pending: int = 8192
    #: Full-queue policy: ``"block"`` or ``"shed"``.
    policy: str = "block"
    #: Per-request pair cap (``batch`` verb) — ``too_large`` beyond it.
    max_request_pairs: int = 4096
    #: Per-connection cap on unanswered requests; the handler stops
    #: reading (TCP backpressure) while a connection is at the cap.
    max_conn_inflight: int = 64
    #: Seconds a single request may wait for its answer.
    request_timeout: float = 30.0
    #: Stream reader line limit in bytes.
    max_line_bytes: int = 1 << 20
    #: Graceful-shutdown deadline: seconds :meth:`ReachServer.stop`
    #: waits for in-flight requests to finish before force-closing
    #: the remaining connections.
    drain_timeout: float = 5.0
    #: Structured JSON access log: a path, ``"-"`` for stderr, or
    #: ``None`` to disable.
    access_log: str | Path | None = None
    #: Rotate a file-backed access log once it exceeds this many
    #: bytes (the old file moves to ``<path>.1``); ``None`` disables
    #: rotation.
    access_log_max_bytes: int | None = None
    #: Worker threads evaluating query flushes.
    executor_workers: int = 1
    #: Bind an HTTP ``GET /metrics`` Prometheus scrape endpoint on
    #: this port (``0`` picks a free port — see
    #: ``ReachServer.metrics_port``); ``None`` disables it.
    metrics_port: int | None = None
    #: Capacity of the slow-query log (top-K slowest requests with
    #: their span breakdowns); ``0`` disables it.
    slow_log_size: int = 32
    #: Record per-stage spans into the ``reach_stage_seconds``
    #: histograms for 1 in this many requests (deterministic tick).
    #: Sampling keeps the hot path cheap at tens of thousands of
    #: requests per second while 1-in-8 of that traffic still gives
    #: percentile estimates thousands of samples per second; the
    #: slow-query log is exempt and considers *every* request, so the
    #: exact tail is never missed.  ``1`` records every request.
    span_sample: int = 8
    #: Optional hook applied to every service ``reload`` creates —
    #: the fault-injection seam (:mod:`repro.testing.faults` wraps
    #: services in a ``FlakyService`` here); ``None`` is a no-op.
    service_wrapper: Any = None
    #: Bind the listener with ``SO_REUSEPORT`` so several processes
    #: can share one port — the worker fleet's accept-sharding mode
    #: (the kernel distributes incoming connections among the
    #: listening workers; no userspace router sits on the hot path).
    reuse_port: bool = False
    #: Identifies this process in a worker fleet: stamped as a
    #: ``worker="<label>"`` constant label on every Prometheus sample
    #: and surfaced in the ``stats``/``health`` documents, so one
    #: aggregated scrape still attributes queue depth and stage
    #: latency per worker.  ``None`` (standalone server) adds nothing.
    worker_label: str | None = None
    #: Optional async callable ``(payload) -> summary dict`` replacing
    #: the in-process ``reload`` implementation.  A fleet worker
    #: installs a delegate here that forwards the request to the
    #: parent, which rebuilds once, publishes a new shared-memory
    #: generation, and moves every worker together — see
    #: :mod:`repro.server.worker`.
    reload_handler: Any = None
    #: Optional async callable ``(payload) -> result dict`` replacing
    #: the in-process implementation of *mutating* ``catalog`` verbs
    #: (``create``/``build``/``load``/``drop``; ``list`` always
    #: answers locally).  A fleet worker forwards mutations to the
    #: parent, which publishes per-index shared-memory segments and
    #: moves every worker's catalog together.
    catalog_handler: Any = None
    #: Optional :class:`~repro.server.durability.DurableState` giving
    #: the catalog crash-durable semantics (``serve --state-dir``).
    #: Must be recovered before the server starts; every catalog
    #: mutation (create/drop and each install generation) is journaled
    #: + fsynced *before* the client is acknowledged, and
    #: ``ready``/``stats`` report the durability status.  Not
    #: picklable — fleet workers never carry one (the parent owns
    #: durable state and republishes shared-memory segments).
    state: Any = None
    #: Boot recovery latency to export when ``state`` is absent: the
    #: fleet parent recovers once and hands each worker this plain
    #: float, so every worker's exposition still carries
    #: ``reach_recovery_seconds``.  Ignored when ``state`` is set
    #: (the state's own ``recovery_seconds`` wins).
    recovery_seconds: Any = None
    #: Default SLO objective applied to every catalog entry the first
    #: time it serves a request: a ``{"availability", "latency_ms"}``
    #: dict (``serve --slo-availability/--slo-latency-ms``) or
    #: ``None`` — then only entries declared via the ``slo`` verb are
    #: tracked, and with none declared the hot path skips SLO
    #: accounting entirely.
    slo_defaults: Any = None
    #: Directory the crash flight recorder spills to (the CLI passes
    #: ``<state-dir>/flightrec``); ``None`` keeps the ring in-memory
    #: only (the ``flight`` verb still answers).
    flight_dir: str | Path | None = None
    #: Ring capacity of the flight recorder.
    flight_capacity: int = 2048


class ServerMetrics:
    """Gateway-level metrics in ``reach_*`` families.

    Replaces the old ad-hoc counter/reservoir object: every number the
    ``stats`` verb reports now lives in a
    :class:`~repro.obs.metrics.MetricsRegistry`, so the Prometheus
    exposition (``metrics`` verb, HTTP scrape endpoint) and the
    ``stats`` document are two views of the same state.  Request
    latency percentiles come from the fixed-bucket
    ``reach_request_seconds`` histogram (estimates are bucket upper
    bounds — never optimistic) instead of a sorted reservoir, which
    makes ``observe`` O(log buckets) with zero allocation.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.started_at = time.monotonic()
        self._connections = self.registry.counter(
            "reach_connections_total", "TCP connections accepted.")
        self._open = self.registry.gauge(
            "reach_connections_open",
            "TCP connections currently open.")
        self._requests = self.registry.counter(
            "reach_requests_total", "Requests answered, by verb.",
            labels=("verb",))
        self._errors = self.registry.counter(
            "reach_errors_total", "Error replies, by error code.",
            labels=("code",))
        self._swaps = self.registry.counter(
            "reach_index_swaps_total", "Successful hot index swaps.")
        self.degraded = self.registry.gauge(
            "reach_degraded",
            "1 while serving from the last good index after a failed "
            "reload, else 0.")
        self.request_seconds = self.registry.histogram(
            "reach_request_seconds",
            "End-to-end request latency (read to reply queued).")
        #: Verb -> counter child, resolved once; ``labels()`` costs a
        #: tuple build + dict probe per call, too much at 40k req/s.
        self._verb_children: dict[str, Any] = {}
        self._lock = self.registry.lock
        # Event-loop-confined accumulators: ``observe`` is called once
        # per served request, so it does two plain dict/list writes and
        # defers the locked registry updates to ``flush`` — every 256
        # requests, and from every read path (the read paths all run on
        # the event loop, so reads through the verbs stay exact).
        self._pending_verbs: dict[str, int] = {}
        self._pending_latencies: list[float] = []

    # -- event-loop write path -----------------------------------------
    def connection_opened(self) -> None:
        self._connections.inc()
        self._open.inc()

    def connection_closed(self) -> None:
        self._open.dec()

    def observe(self, verb: str, seconds: float,
                code: str | None) -> None:
        verbs = self._pending_verbs
        verbs[verb] = verbs.get(verb, 0) + 1
        latencies = self._pending_latencies
        latencies.append(seconds)
        if code is not None:
            self._errors.labels(code).inc()
        if len(latencies) >= 256:
            self.flush()

    def flush(self) -> None:
        """Move the accumulated per-request observations into the
        registry (one lock acquisition for the whole backlog)."""
        if not self._pending_latencies:
            return
        verbs, self._pending_verbs = self._pending_verbs, {}
        latencies, self._pending_latencies = \
            self._pending_latencies, []
        children = self._verb_children
        for verb in verbs:
            if verb not in children:
                children[verb] = self._requests.labels(verb)
        hist = self.request_seconds
        with self._lock:
            for verb, n in verbs.items():
                children[verb].inc_locked(n)
            for seconds in latencies:
                hist.observe_locked(seconds)

    def swap(self) -> None:
        self._swaps.inc()

    # -- read path ------------------------------------------------------
    @property
    def connections_open(self) -> int:
        return int(self._open.value)

    @property
    def swaps(self) -> int:
        return int(self._swaps.value)

    def as_dict(self) -> dict[str, Any]:
        """The ``stats`` verb's ``server`` block (keys unchanged from
        the pre-registry implementation)."""
        self.flush()
        verb_counts = {values[0]: int(child.value)
                       for values, child in self._requests.series()}
        error_counts = {values[0]: int(child.value)
                        for values, child in self._errors.series()}
        row: dict[str, Any] = {
            "uptime_seconds": time.monotonic() - self.started_at,
            "connections_total": int(self._connections.value),
            "connections_open": self.connections_open,
            "requests_total": sum(verb_counts.values()),
            "errors_total": sum(error_counts.values()),
            "index_swaps": self.swaps,
            "verb_counts": verb_counts,
            "error_counts": error_counts,
        }
        row.update(self.request_seconds.percentiles_ms())
        return row

    def reset(self) -> None:
        """Drain counters and histograms (``metrics`` verb
        ``reset=true``); gauges describe current state and persist."""
        self.flush()
        self.registry.reset()
        self.started_at = time.monotonic()


class _Connection:
    """Per-connection serving state (event-loop-confined)."""

    __slots__ = ("id", "writer", "inflight", "resume", "out",
                 "flush_scheduled", "closed", "codec")

    def __init__(self, conn_id: int,
                 writer: asyncio.StreamWriter) -> None:
        self.id = conn_id
        self.writer = writer
        #: Unanswered requests (fast-path and task-path combined).
        self.inflight = 0
        #: Set on any completion; the read loop waits on it at the cap.
        self.resume = asyncio.Event()
        #: Reply bytes queued for the next coalesced write.
        self.out = bytearray()
        self.flush_scheduled = False
        self.closed = False
        #: Reply encoder — JSON until the binary preamble negotiates
        #: frame mode; every reply goes through ``codec.encode_*``.
        self.codec: Any = protocol.JSON_CODEC


class _FramePayload:
    """A binary ``BATCH`` payload with pair-count admission weight.

    The batcher accounts admission in *pairs* via ``len(entry)``, so
    the packed payload bytes ride inside a wrapper whose length is the
    pair count — one object per request, never per pair."""

    __slots__ = ("data", "pairs")

    def __init__(self, data: bytes, pairs: int) -> None:
        self.data = data
        self.pairs = pairs

    def __len__(self) -> int:
        return self.pairs


class _BinaryLane(MicroBatcher):
    """Micro-batcher lane for binary ``BATCH`` frames.

    Shares every admission/flush mechanism with the JSON
    :class:`MicroBatcher` (same ``max_batch``/``max_delay``/
    ``max_pending``/``policy`` knobs, same waiter-based block policy,
    same isolation rerun) but keeps payloads as packed bytes end to
    end: a flush hands the raw frame payloads to
    ``QueryService.query_frames`` and scatters back per-request
    ``(count, bitmap)`` tuples.  A separate lane — rather than mixing
    frames into the JSON batcher — because the JSON ``_execute`` path
    concatenates Python pair lists, which is exactly the per-pair
    object churn the binary protocol exists to avoid.
    """

    #: Prometheus family prefix (the JSON batcher owns ``reach_batcher``).
    _FAMILY_PREFIX = "reach_binary_lane"

    async def enqueue_when_ready(self, frame: _FramePayload,
                                 ticket: BatchTicket | None = None
                                 ) -> asyncio.Future:
        """Block-policy admission: wait for queue room, then enqueue.

        Like :meth:`submit` but returns the answer future instead of
        awaiting it, so the caller can attach its timeout/completion
        callbacks.  While one connection waits here its frame reads are
        paused — TCP backpressure, mirroring the JSON read loop.
        """
        loop = asyncio.get_running_loop()
        n = len(frame)
        while self._in_flight + n > self.max_pending:
            waiter: asyncio.Future = loop.create_future()
            self._waiters.append(waiter)
            await waiter
            if self._closed:
                raise OverloadedError("batcher is shut down")
        self._in_flight += n
        return self._enqueue(frame, n, loop, ticket)

    async def _execute(self, entries: list, num_pairs: int) -> None:
        frames = [frame.data for frame, _, _ in entries]
        flush_at = time.perf_counter()
        for _, _, ticket in entries:
            if ticket is not None:
                ticket.flush_at = flush_at
        try:
            try:
                bitmaps = await self._evaluate(frames)
            except Exception:
                await self._execute_isolated(entries)
                return
            kernel_done = time.perf_counter()
            for (frame, future, ticket), bitmap in zip(entries, bitmaps):
                if ticket is not None:
                    ticket.kernel_done = kernel_done
                if not future.done():
                    future.set_result((frame.pairs, bitmap))
        finally:
            self._release(num_pairs)

    async def _execute_isolated(self, entries: list) -> None:
        self.isolation_reruns += 1
        for frame, future, ticket in entries:
            if future.done():
                continue
            try:
                bitmaps = await self._evaluate([frame.data])
            except Exception as exc:
                self.flush_failures += 1
                if ticket is not None:
                    ticket.kernel_done = time.perf_counter()
                if not future.done():
                    future.set_exception(exc)
            else:
                if ticket is not None:
                    ticket.kernel_done = time.perf_counter()
                if not future.done():
                    future.set_result((frame.pairs, bitmaps[0]))

    def collect(self) -> list[dict]:
        families = super().collect()
        for family in families:
            family["name"] = family["name"].replace(
                "reach_batcher", self._FAMILY_PREFIX, 1)
        return families


class ReachServer:
    """Asyncio TCP gateway over a catalog of query services.

    Parameters
    ----------
    service:
        The initial backend of catalog entry 0, the default index, or
        ``None`` to leave entry 0 empty until its first :meth:`install`
        (a fleet worker attaches it from the parent's manifest).
    scheme:
        Scheme name used when ``reload`` rebuilds from a graph file
        without an explicit ``scheme`` field.
    config:
        See :class:`ServerConfig`.
    """

    def __init__(self, service: QueryService | None, *,
                 scheme: str = "dual-i",
                 config: ServerConfig | None = None) -> None:
        self._config = config or ServerConfig()
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._query_executor: ThreadPoolExecutor | None = None
        self._reload_executor: ThreadPoolExecutor | None = None
        self._conn_counter = 0
        self._connections: set[_Connection] = set()
        self._log_file = None
        self._owns_log_file = False
        self._log_path: Path | None = None
        self._log_bytes = 0
        #: Degradation reason, or ``None`` while healthy.  Set when a
        #: ``reload`` fails (the server keeps answering from the last
        #: good index); cleared by the next successful reload.
        self._degraded: str | None = None
        #: Set at the top of :meth:`stop`; late-accepted connections
        #: (raced past the listener close) are turned away immediately.
        self._stopping = False
        self.stats = ServerMetrics()
        self.stats.degraded.set_function(
            lambda: 1.0 if self._degraded else 0.0)
        #: Mints trace IDs for requests that arrive without one.
        self._trace_ids = TraceIds()
        self._spans = SpanRecorder(self.stats.registry)
        #: Deterministic 1-in-``span_sample`` tick for stage-histogram
        #: recording; starts one short of the period so the first
        #: request is always sampled.
        self._span_sample = max(1, self._config.span_sample)
        self._span_tick = self._span_sample - 1
        #: Build-phase durations of hot reloads, recorded into the
        #: ``reach_build_phase_seconds{phase=...}`` histogram family.
        self._build_phases = PhaseProfiler(self.stats.registry)
        self.slow_log = SlowQueryLog(self._config.slow_log_size)
        #: Named-index catalog; entry 0 ("default") starts on ``service``.
        self._catalog = CatalogService(service, scheme=scheme)
        self.stats.registry.register_collector(self._catalog.collect)
        #: Per-tenant SLO engine (error budgets, burn-rate alerts).
        slo_defaults = self._config.slo_defaults
        if isinstance(slo_defaults, dict):
            slo_defaults = SloObjective.from_payload(slo_defaults)
        self.slo = SloEngine(defaults=slo_defaults)
        self.stats.registry.register_collector(self.slo.collect)
        #: True while at least one entry is SLO-tracked — the hot
        #: path's one-branch gate (flipped by the engine/``slo`` verb).
        self._slo_on = self.slo.enabled
        #: Crash flight recorder: always on; spills to
        #: ``config.flight_dir`` when set (started in :meth:`start`).
        label = self._config.worker_label or "srv"
        self.flight = FlightRecorder(self._config.flight_capacity,
                                     label=label)
        #: Durable-state subsystem (``--state-dir``), or ``None``.
        self._state = self._config.state
        recovery_seconds = (self._state.recovery_seconds
                            if self._state is not None
                            else self._config.recovery_seconds)
        if recovery_seconds is not None:
            # Boot-time crash recovery just ran (journal replay +
            # artifact restore — in this process, or in the fleet
            # parent that spawned this worker); export how long it
            # took.
            self.stats.registry.histogram(
                "reach_recovery_seconds",
                "Boot-time durable-state recovery latency in seconds",
                buckets=RECOVERY_BUCKETS,
            ).observe(recovery_seconds)

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful with ``config.port == 0``)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> int:
        """The bound HTTP scrape port (``config.metrics_port``)."""
        if self._metrics_server is None:
            raise RuntimeError("metrics endpoint is not enabled")
        return self._metrics_server.sockets[0].getsockname()[1]

    @property
    def catalog(self) -> CatalogService:
        """The named-index catalog (entry 0 is the default index)."""
        return self._catalog

    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        config = self._config
        self._loop = asyncio.get_running_loop()
        self._query_executor = ThreadPoolExecutor(
            max_workers=config.executor_workers,
            thread_name_prefix="repro-serve")
        self._reload_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-reload")
        # Entry 0's lanes exist from start-up, so ``stats`` and the
        # ``reach_batcher_*``/``reach_binary_lane_*`` families describe
        # them before any traffic; the lanes keep lock-free
        # event-loop-confined counters that the collectors render at
        # scrape time.
        default = self._lanes(self._catalog.default)
        self.stats.registry.register_collector(default.batcher.collect)
        self.stats.registry.register_collector(default.lane.collect)
        self._open_access_log()
        self.flight.record("server_start",
                           worker=config.worker_label,
                           host=config.host, port=config.port)
        if config.flight_dir is not None:
            # Keep the flight recorder's current-dump file at most one
            # interval stale on disk, so even SIGKILL leaves the
            # pre-kill window readable.  Recorded-before-started: the
            # spiller's immediate first pass must already see the
            # server_start event, or an early kill leaves no file.
            self.flight.start_spiller(str(config.flight_dir))
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port,
            limit=config.max_line_bytes,
            reuse_port=config.reuse_port or None)
        if config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, config.host,
                config.metrics_port)

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI foreground mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, *, drain_timeout: float | None = None) -> None:
        """Graceful shutdown: stop accepting, drain, release resources.

        The listener closes first (no new connections), then in-flight
        requests get up to ``drain_timeout`` seconds (default
        ``config.drain_timeout``) to finish and flush their replies;
        whatever is still open afterwards is force-closed so shutdown
        is bounded even with wedged clients.
        """
        if drain_timeout is None:
            drain_timeout = self._config.drain_timeout
        self._stopping = True
        self.flight.record("server_stop",
                           worker=self._config.worker_label)
        self.flight.stop_spiller()
        if self._metrics_server is not None:
            self._metrics_server.close()
        if self._server is not None:
            # close() only — waiting for wait_closed() here would
            # deadlock on interpreters where it blocks until every
            # connection handler exits (3.12.1+), which is exactly
            # what the drain below arranges.
            self._server.close()
        deadline = time.monotonic() + max(0.0, drain_timeout)
        while any(conn.inflight > 0 for conn in self._connections) \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        for conn in list(self._connections):
            # Deliver any queued reply bytes, then close the socket so
            # the handler's read loop sees EOF and exits.
            self._flush_writes(conn)
            conn.closed = True
            try:
                conn.writer.close()
            except (ConnectionError, OSError):
                pass
        if self._server is not None:
            try:
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=1.0)
            except (asyncio.TimeoutError, TimeoutError):
                pass
        for entry in self._catalog.entries():
            await self._close_lanes(entry)
        for executor in (self._query_executor, self._reload_executor):
            if executor is not None:
                executor.shutdown(wait=True)
        if self._log_file is not None and self._owns_log_file:
            self._log_file.close()
        self._log_file = None

    # -- per-entry lanes -----------------------------------------------
    def _lanes(self, entry: CatalogEntry) -> CatalogEntry:
        """``entry`` with both of its lanes — JSON pairs and binary
        frames — built on first use.

        Every entry flushes through its own lanes, so one flush never
        mixes two indexes' pairs into one kernel call and a slow or
        overloaded tenant queue cannot delay another's flushes.  Each
        flush snapshots ``entry.service`` exactly once: a hot swap
        mid-flush never mixes two index generations inside one answer
        vector, and a retired service lives exactly as long as the
        flushes that snapshotted it.
        """
        if entry.batcher is None:
            config = self._config

            def flush_through(method: str):
                async def run(items: list) -> list:
                    evaluate = getattr(entry.service, method)
                    return await self._loop.run_in_executor(
                        self._query_executor, evaluate, items)
                return run

            knobs = dict(max_batch=config.max_batch,
                         max_delay=config.max_delay,
                         max_pending=config.max_pending,
                         policy=config.policy)
            entry.batcher = MicroBatcher(flush_through("query_batch"),
                                         **knobs)
            entry.lane = _BinaryLane(flush_through("query_frames"),
                                     **knobs)
        return entry

    @staticmethod
    async def _close_lanes(entry: CatalogEntry) -> None:
        """Flush and drain ``entry``'s lanes (waiters get
        ``overloaded``)."""
        for lane in (entry.batcher, entry.lane):
            if lane is not None:
                await lane.close()

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if self._stopping:
            writer.close()
            return
        self._conn_counter += 1
        self.stats.connection_opened()
        conn = _Connection(self._conn_counter, writer)
        self._connections.add(conn)
        tasks: set[asyncio.Task] = set()

        def request_done(task: asyncio.Task) -> None:
            tasks.discard(task)
            conn.inflight -= 1
            conn.resume.set()

        served = False
        try:
            while True:
                line = await self._read_line(reader, conn)
                if not line:
                    break
                if line.isspace():
                    continue
                if line in (binproto.MAGIC_LINE,
                            binproto.MAGIC_LINE_TRACE):
                    if served:
                        # Mid-stream renegotiation would race in-flight
                        # replies; reject it and stay in JSON mode.
                        self._finish(
                            conn, None, "hello", 0, time.perf_counter(),
                            None, protocol.ERR_BAD_REQUEST,
                            "binary negotiation is only valid as the "
                            "first request of a connection")
                        continue
                    traced = line == binproto.MAGIC_LINE_TRACE
                    conn.codec = binproto.BINARY_TRACE_CODEC if traced \
                        else binproto.BINARY_CODEC
                    self._send(conn, binproto.encode_hello(
                        self._config.max_request_pairs,
                        self._config.max_line_bytes,
                        binproto.HELLO_FLAG_TRACE if traced else 0))
                    await self._serve_binary(reader, conn,
                                             traced=traced)
                    break
                served = True
                # Per-connection cap: stop reading (TCP backpressure)
                # until at least one outstanding request finishes.
                while conn.inflight >= self._config.max_conn_inflight:
                    conn.resume.clear()
                    await conn.resume.wait()
                if self._fast_serve(line, conn):
                    continue
                conn.inflight += 1
                task = asyncio.ensure_future(self._serve_line(line, conn))
                tasks.add(task)
                task.add_done_callback(request_done)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*list(tasks),
                                     return_exceptions=True)
            self._flush_writes(conn)
            conn.closed = True  # outstanding fast callbacks stop writing
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            self._connections.discard(conn)
            self.stats.connection_closed()

    async def _read_line(self, reader: asyncio.StreamReader,
                         conn: _Connection) -> bytes:
        """One bounded request line; ``b""`` at EOF.

        An oversized line gets a ``too_large`` error reply and is
        *discarded up to its newline* — the connection keeps serving
        subsequent requests instead of being dropped, so one malformed
        giant cannot kill a pipelined client's whole stream.
        """
        discarding = False
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                # EOF; a non-empty partial is a valid unterminated
                # final request (unless it is giant debris).
                return b"" if discarding else exc.partial
            except ConnectionError:
                return b""
            except asyncio.LimitOverrunError as exc:
                if not discarding:
                    discarding = True
                    self._send(conn, protocol.encode_message(
                        protocol.error_reply(
                            None, protocol.ERR_TOO_LARGE,
                            f"line exceeds "
                            f"{self._config.max_line_bytes} bytes")))
                # readuntil consumed nothing; skim the oversized data
                # in bounded chunks (constant memory) up to its newline.
                if not await reader.read(exc.consumed or 1):
                    return b""
                continue
            if discarding:
                # This chunk is the tail of the giant line, ending at
                # its newline — drop it and resume normal service.
                discarding = False
                continue
            return line

    # -- binary frame mode ----------------------------------------------
    async def _serve_binary(self, reader: asyncio.StreamReader,
                            conn: _Connection, *,
                            traced: bool = False) -> None:
        """Frame-mode read loop (after a successful negotiation).

        Implements the resync contract of :mod:`repro.server.binproto`:
        desync-class problems — bad magic, a length header beyond the
        bounded-read limit, a CRC mismatch — get one ``ERROR`` frame
        and the connection closes (a length-prefixed stream cannot
        rescan for a sentinel); in-sync request errors (including an
        ``index`` id naming no catalog entry) are answered and the
        connection keeps serving.  A frame truncated by disconnection
        just ends the connection.

        With ``traced`` (the negotiated TRACE extension) every frame
        uses the widened :data:`~repro.server.binproto.TRACE_HEADER`
        and carries a trace id that flows into the request ticket and
        back out in the reply frame.
        """
        config = self._config
        header_size = binproto.TRACE_HEADER_SIZE if traced \
            else binproto.HEADER_SIZE
        while True:
            try:
                header = await reader.readexactly(header_size)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # EOF (possibly mid-header): nothing to answer
            started = time.perf_counter()
            trace: str | None = None
            if traced:
                (magic, opcode, index_id, request_id, payload_len,
                 trace_raw, crc) = binproto.TRACE_HEADER.unpack(header)
                trace = binproto.decode_trace_field(trace_raw)
            else:
                (magic, opcode, index_id, request_id, payload_len,
                 crc) = binproto.HEADER.unpack(header)
            if magic != binproto.FRAME_MAGIC:
                self._finish(conn, request_id, "frame", 0, started,
                             None, protocol.ERR_BAD_REQUEST,
                             "frame desync (bad magic); closing "
                             "connection")
                return
            if payload_len > config.max_line_bytes:
                self._finish(conn, request_id, "frame", 0, started,
                             None, protocol.ERR_TOO_LARGE,
                             f"frame payload of {payload_len} bytes "
                             f"exceeds the {config.max_line_bytes}-"
                             f"byte limit; closing connection")
                return
            try:
                payload = await reader.readexactly(payload_len)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # truncated frame: the client went away mid-send
            if zlib.crc32(payload) != crc:
                self._finish(conn, request_id, "frame", 0, started,
                             None, protocol.ERR_BAD_REQUEST,
                             "payload CRC mismatch; closing connection")
                return
            while conn.inflight >= config.max_conn_inflight:
                conn.resume.clear()
                await conn.resume.wait()
            await self._dispatch_frame(conn, opcode, request_id,
                                       payload, started, index_id,
                                       trace)

    async def _dispatch_frame(self, conn: _Connection, opcode: int,
                              request_id: int, payload: bytes,
                              started: float,
                              index_id: int = DEFAULT_INDEX_ID,
                              trace: str | None = None) -> None:
        """Serve one validated frame (in-sync errors answer and keep
        the connection; the caller handles desync)."""
        # Traced connections get a ticket even on short paths so the
        # trace id is echoed in the reply and lands in the logs.
        early = BatchTicket(trace, started) if trace is not None \
            else None
        if opcode == binproto.OP_PING:
            self._finish(conn, request_id, "ping", 0, started, "pong",
                         ticket=early)
            return
        if opcode != binproto.OP_BATCH:
            self._finish(conn, request_id, "frame", 0, started, None,
                         protocol.ERR_BAD_REQUEST,
                         f"unknown request opcode 0x{opcode:02X}",
                         ticket=early)
            return
        if len(payload) % 8:
            self._finish(conn, request_id, "batch", 0, started, None,
                         protocol.ERR_BAD_REQUEST,
                         f"BATCH payload of {len(payload)} bytes is "
                         f"not a whole number of (u32, u32) pairs",
                         ticket=early)
            return
        num_pairs = len(payload) >> 3
        if num_pairs > self._config.max_request_pairs:
            self._finish(conn, request_id, "batch", num_pairs, started,
                         None, protocol.ERR_TOO_LARGE,
                         f"batch of {num_pairs} pairs exceeds the "
                         f"per-request cap of "
                         f"{self._config.max_request_pairs}",
                         ticket=early)
            return
        try:
            entry = self._catalog.resolve_id(index_id)
        except ProtocolError as exc:
            self._finish(conn, request_id, "batch", num_pairs, started,
                         None, exc.code, exc.message, ticket=early)
            return
        if num_pairs == 0:
            self._finish(conn, request_id, "batch", 0, started,
                         (0, b""), ticket=early, entry=entry)
            return
        assert self._loop is not None
        ticket = BatchTicket(trace, started)
        ticket.parse_done = time.perf_counter()
        frame = _FramePayload(payload, num_pairs)
        lane = self._lanes(entry).lane
        try:
            entry.admit(num_pairs)
        except OverloadedError as exc:
            self._finish(conn, request_id, "batch", num_pairs, started,
                         None, protocol.ERR_OVERLOADED, str(exc),
                         ticket=ticket, entry=entry)
            return
        try:
            future = lane.try_submit(frame, ticket)
            if future is None:
                # Block policy with a full queue: pausing this
                # connection's frame reads is the backpressure path.
                future = await lane.enqueue_when_ready(frame, ticket)
        except OverloadedError as exc:
            entry.release(num_pairs)
            self._finish(conn, request_id, "batch", num_pairs, started,
                         None, protocol.ERR_OVERLOADED, str(exc),
                         ticket=ticket, entry=entry)
            return
        conn.inflight += 1
        timer = self._loop.call_later(self._config.request_timeout,
                                      self._expire, future)
        future.add_done_callback(
            lambda fut: self._bin_done(fut, conn, request_id,
                                       num_pairs, started, timer,
                                       ticket, entry))

    def _bin_done(self, future: asyncio.Future, conn: _Connection,
                  request_id: int, num_pairs: int, started: float,
                  timer: asyncio.TimerHandle,
                  ticket: BatchTicket | None = None,
                  entry: CatalogEntry | None = None) -> None:
        timer.cancel()
        if entry is not None:
            entry.release(num_pairs)
        exc = future.exception()
        if exc is None:
            self._finish(conn, request_id, "batch", num_pairs, started,
                         future.result(), ticket=ticket, entry=entry)
        else:
            code, message = self._map_error(exc)
            self._finish(conn, request_id, "batch", num_pairs, started,
                         None, code, message, ticket=ticket,
                         entry=entry)
        conn.inflight -= 1
        conn.resume.set()

    def _fast_serve(self, line: bytes, conn: _Connection) -> bool:
        """Hot path for ``query``/``batch`` on any catalog entry:
        parse, resolve, enqueue, and attach a completion callback — all
        synchronously, with no per-request task.  Returns False to
        defer to the :meth:`_serve_line` task path, which re-parses and
        produces the proper error replies (errors are not worth
        optimising)."""
        started = time.perf_counter()
        try:
            doc = json.loads(line)
            verb = doc.get("verb")
            if verb == "query":
                pairs = protocol.parse_pairs(doc)
            elif verb == "batch":
                pairs = protocol.parse_pairs(
                    doc, max_pairs=self._config.max_request_pairs)
            else:
                return False
            entry = self._catalog.resolve(doc.get("index"))
            request_id = doc.get("id")
            if request_id is not None and not isinstance(
                    request_id, (str, int, float)):
                return False
        except Exception:
            return False
        assert self._loop is not None
        trace = doc.get("trace")
        # None = mint lazily in _finish, only if a log consumes it.
        ticket = BatchTicket(trace if isinstance(trace, str) else None,
                             started)
        ticket.parse_done = time.perf_counter()
        try:
            entry.admit(len(pairs))
        except OverloadedError as exc:
            self._finish(conn, request_id, verb, len(pairs), started,
                         None, protocol.ERR_OVERLOADED, str(exc),
                         ticket=ticket, entry=entry)
            return True
        try:
            future = self._lanes(entry).batcher.try_submit(pairs, ticket)
        except OverloadedError as exc:
            entry.release(len(pairs))
            self._finish(conn, request_id, verb, len(pairs), started,
                         None, protocol.ERR_OVERLOADED, str(exc),
                         ticket=ticket, entry=entry)
            return True
        if future is None:  # block policy, queue full: await in a task
            entry.release(len(pairs))  # the task path re-admits
            return False
        conn.inflight += 1
        timer = self._loop.call_later(self._config.request_timeout,
                                      self._expire, future)
        scalar = verb == "query"
        future.add_done_callback(
            lambda fut: self._fast_done(fut, conn, request_id, scalar,
                                        len(pairs), started, timer,
                                        ticket, entry))
        return True

    @staticmethod
    def _expire(future: asyncio.Future) -> None:
        if not future.done():
            future.set_exception(asyncio.TimeoutError())

    def _fast_done(self, future: asyncio.Future, conn: _Connection,
                   request_id: Any, scalar: bool, num_pairs: int,
                   started: float, timer: asyncio.TimerHandle,
                   ticket: BatchTicket | None = None,
                   entry: CatalogEntry | None = None) -> None:
        timer.cancel()
        if entry is not None:
            entry.release(num_pairs)
        verb = "query" if scalar else "batch"
        exc = future.exception()
        if exc is None:
            answers = future.result()
            self._finish(conn, request_id, verb, num_pairs, started,
                         answers[0] if scalar else answers,
                         ticket=ticket, entry=entry)
        else:
            code, message = self._map_error(exc)
            self._finish(conn, request_id, verb, num_pairs, started,
                         None, code, message, ticket=ticket,
                         entry=entry)
        conn.inflight -= 1
        conn.resume.set()

    def _map_error(self, exc: BaseException) -> tuple[str, str]:
        if isinstance(exc, ProtocolError):
            return exc.code, exc.message
        if isinstance(exc, OverloadedError):
            return protocol.ERR_OVERLOADED, str(exc)
        if isinstance(exc, IndexBudgetExceeded):
            return protocol.ERR_RELOAD_FAILED, str(exc)
        if isinstance(exc, QueryError):
            return protocol.ERR_UNKNOWN_NODE, str(exc)
        if isinstance(exc, asyncio.TimeoutError):
            return (protocol.ERR_TIMEOUT,
                    f"request exceeded the "
                    f"{self._config.request_timeout:.3f}s timeout")
        return protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"

    def _finish(self, conn: _Connection, request_id: Any, verb: str,
                num_pairs: int, started: float, result: Any,
                code: str | None = None, message: str = "",
                ticket: BatchTicket | None = None,
                entry: CatalogEntry | None = None) -> None:
        """Account one answered request and queue its reply bytes."""
        finished = time.perf_counter()
        elapsed = finished - started
        self.stats.observe(verb, elapsed, code)
        spans = None
        trace = None
        # The trace id the *client* attached (before any lazy mint):
        # only these are echoed in the reply and become exemplars.
        client_trace = ticket.trace_id if ticket is not None else None
        if self._slo_on and entry is not None:
            self.slo.record(entry.name, code is None, elapsed)
            if self.slo.transitions:
                self._drain_slo_transitions()
        if ticket is not None:
            self._span_tick += 1
            sampled = self._span_tick >= self._span_sample
            slow = elapsed > self.slow_log.floor
            if slow or self._log_file is not None:
                # Untagged requests get their ID only once something
                # will actually record it.
                trace = ticket.trace_id
                if trace is None:
                    trace = ticket.trace_id = self._trace_ids.next()
            if sampled or slow or client_trace is not None \
                    or self._log_file is not None:
                spans = ticket.spans(finished)
            if sampled:
                self._span_tick = 0
                self._spans.record(spans, client_trace)
            elif client_trace is not None:
                self._spans.note_exemplars(spans, client_trace)
            if slow:
                record = {
                    "trace": trace,
                    "ts": round(time.time(), 6),
                    "conn": conn.id,
                    "verb": verb,
                    "pairs": num_pairs,
                    "ms": round(elapsed * 1000.0, 3),
                    "status": code or "ok",
                    "stages_ms": {stage: round(sec * 1000.0, 3)
                                  for stage, sec in spans.items()},
                }
                if entry is not None:
                    record["index"] = entry.name
                self.slow_log.offer(elapsed, record)
            if client_trace is not None or code is not None or slow \
                    or sampled:
                # Flight-recorder policy: traced, errored, slow, or
                # span-sampled requests enter the ring; bulk untraced
                # successes stay off the hot path.
                self.flight.record(
                    "request", verb=verb, conn=conn.id,
                    pairs=num_pairs,
                    ms=round(elapsed * 1000.0, 3),
                    status=code or "ok",
                    trace=trace if trace is not None else client_trace,
                    index=entry.name if entry is not None else None)
        elif code is not None:
            self.flight.record("request", verb=verb, conn=conn.id,
                               pairs=num_pairs,
                               ms=round(elapsed * 1000.0, 3),
                               status=code)
        if self._log_file is not None:
            self._log_access(conn.id, verb, num_pairs, elapsed, code,
                             trace=trace, spans=spans,
                             index=entry.name if entry is not None
                             else None)
        # The codec seam: JSON and binary replies share this one call
        # site (JsonCodec keeps the hand-formatted bool fast paths that
        # used to live inline here; BinaryCodec emits frames).  Only
        # client-traced requests pass a trace — the untraced call
        # shape (and its fast paths) is untouched.
        if code is not None:
            payload = conn.codec.encode_error(request_id, code, message) \
                if client_trace is None else conn.codec.encode_error(
                    request_id, code, message, client_trace)
        else:
            payload = conn.codec.encode_ok(request_id, result) \
                if client_trace is None else conn.codec.encode_ok(
                    request_id, result, client_trace)
        self._send(conn, payload)

    def _drain_slo_transitions(self) -> None:
        """Move queued SLO alert transitions into the access log and
        the flight recorder."""
        while self.slo.transitions:
            event = self.slo.transitions.popleft()
            self.flight.record("slo_alert", **{
                key: event[key] for key in
                ("index", "severity", "active", "burn_long",
                 "burn_short")})
            self._log_event("slo_alert", event)

    def _send(self, conn: _Connection, payload: bytes) -> None:
        """Queue reply bytes; one write per loop iteration coalesces
        every reply a flush completion produced for this connection."""
        if conn.closed:
            return
        conn.out += payload
        if not conn.flush_scheduled:
            conn.flush_scheduled = True
            assert self._loop is not None
            self._loop.call_soon(self._flush_writes, conn)

    def _flush_writes(self, conn: _Connection) -> None:
        conn.flush_scheduled = False
        if conn.closed or not conn.out:
            return
        data = bytes(conn.out)
        del conn.out[:]
        try:
            conn.writer.write(data)
        except (ConnectionError, OSError):
            pass  # client went away; the read loop will notice

    async def _serve_line(self, line: bytes,
                          conn: _Connection) -> None:
        started = time.perf_counter()
        request_id: Any = None
        verb = "?"
        num_pairs = 0
        code: str | None = None
        message = ""
        result: Any = None
        ticket: BatchTicket | None = None
        entry: CatalogEntry | None = None
        try:
            doc = protocol.decode_message(line)
            request_id = doc.get("id") if isinstance(doc.get("id"),
                                                     (str, int, float)) \
                else None
            trace = doc.get("trace")
            ticket = BatchTicket(
                trace if isinstance(trace, str) else None, started)
            request = protocol.parse_request(doc)
            verb = request.verb
            ticket.parse_done = time.perf_counter()
            result, num_pairs, entry = await self._dispatch(request,
                                                            ticket)
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # defensive: never kill the connection
            code, message = self._map_error(exc)
        self._finish(conn, request_id, verb, num_pairs, started,
                     result, code, message, ticket=ticket, entry=entry)

    # -- verb dispatch --------------------------------------------------
    async def _dispatch(self, request: Request,
                        ticket: BatchTicket | None = None
                        ) -> tuple[Any, int, "CatalogEntry | None"]:
        verb = request.verb
        if verb == "ping":
            return "pong", 0, None
        if verb == "health":
            return self.health_snapshot(), 0, None
        if verb == "ready":
            return self.ready_snapshot(), 0, None
        if verb == "query":
            pairs = protocol.parse_pairs(request.payload)
            entry = self._catalog.resolve(request.payload.get("index"))
            answers = await self._submit(entry, pairs, ticket)
            return answers[0], 1, entry
        if verb == "batch":
            pairs = protocol.parse_pairs(
                request.payload,
                max_pairs=self._config.max_request_pairs)
            entry = self._catalog.resolve(request.payload.get("index"))
            answers = await self._submit(entry, pairs, ticket)
            return answers, len(pairs), entry
        if verb == "stats":
            return self.stats_snapshot(
                reset=bool(request.payload.get("reset"))), 0, None
        if verb == "metrics":
            return self.metrics_snapshot(
                reset=bool(request.payload.get("reset"))), 0, None
        if verb == "reload":
            return await self._reload(request.payload), 0, None
        if verb == "catalog":
            return await self._catalog_op(request.payload), 0, None
        if verb == "slo":
            return self._slo_op(request.payload), 0, None
        if verb == "flight":
            return self._flight_op(request.payload), 0, None
        raise ProtocolError(protocol.ERR_UNKNOWN_VERB,
                            f"unknown verb {verb!r}")

    def _slo_op(self, payload: dict) -> dict:
        """The ``slo`` verb: declare an objective and/or report.

        With an ``objective`` field, declares it for the entry named
        by ``index`` (default: the default index) before reporting;
        without one, reports only.
        """
        objective = payload.get("objective")
        if objective is not None:
            # Validates the entry exists (raises unknown_index).
            name = self._catalog.resolve(payload.get("index")).name
            try:
                parsed = SloObjective.from_payload(objective)
            except ReproError as exc:
                raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                    str(exc)) from None
            self.slo.set_objective(name, parsed)
            self._slo_on = True
            self.flight.record("slo_objective", index=name,
                               **parsed.as_dict())
        return self.slo.report()

    def _flight_op(self, payload: dict) -> dict:
        """The ``flight`` verb: snapshot (and optionally dump) the
        flight recorder."""
        doc = {
            "label": self.flight.label,
            "capacity": self.flight.capacity,
            "events": self.flight.snapshot(),
            "dumps": self.flight.dumps,
        }
        if payload.get("dump"):
            doc["dump_path"] = self.flight.dump(reason="verb")
        return doc

    async def _submit(self, entry: CatalogEntry, pairs: list,
                      ticket: BatchTicket | None = None) -> list:
        batcher = self._lanes(entry).batcher
        entry.admit(len(pairs))
        try:
            # asyncio.timeout (3.11+) is much cheaper than wait_for,
            # which wraps the coroutine in an extra Task — this sits on
            # the per-request hot path.
            if _asyncio_timeout is None:  # pragma: no cover - py3.10
                return await asyncio.wait_for(
                    batcher.submit(pairs, ticket),
                    self._config.request_timeout)
            async with _asyncio_timeout(self._config.request_timeout):
                return await batcher.submit(pairs, ticket)
        finally:
            entry.release(len(pairs))

    def health_snapshot(self) -> dict:
        """The ``health`` verb's liveness document.

        ``status`` is ``"degraded"`` after a failed reload (the server
        keeps answering from the last good index) and flips back to
        ``"ok"`` on the next successful swap.
        """
        doc = {
            "status": "degraded" if self._degraded else "ok",
            "reason": self._degraded,
            "uptime_seconds": time.monotonic() - self.stats.started_at,
            "index_swaps": self.stats.swaps,
            "connections_open": self.stats.connections_open,
        }
        if self._config.worker_label is not None:
            doc["worker"] = self._config.worker_label
        return doc

    def ready_snapshot(self) -> dict:
        """The ``ready`` verb's readiness document.

        With a durable state dir, readiness additionally requires that
        boot-time recovery completed — the catalog matches the
        journal — so a load balancer never routes to a server still
        replaying its state.
        """
        default = self._catalog.default
        ready = (self._server is not None and default.batcher is not None
                 and default.service is not None)
        doc = {
            "ready": ready,
            "degraded": self._degraded is not None,
            "scheme": default.scheme,
        }
        if self._state is not None:
            doc["ready"] = ready and self._state.recovered
            doc["durable"] = {
                "recovered": self._state.recovered,
                "seq": self._state.status()["seq"],
                "recovery_seconds": self._state.recovery_seconds,
            }
        return doc

    def stats_snapshot(self, reset: bool = False) -> dict:
        """The ``stats`` verb's nested counter document.

        With ``reset``, the *service* counter window and the slow-query
        log are drained atomically as they are read (an increment
        racing the reset lands in this snapshot or the next window,
        never nowhere); the server/batcher lifetime counters are never
        reset by this verb, matching the original semantics.
        """
        default = self._catalog.default
        service = default.service
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "scheme": default.scheme,
            "worker": self._config.worker_label,
            "degraded": self._degraded,
            "server": self.stats.as_dict(),
            "stages": self._spans.percentiles_ms(),
            "stage_exemplars": self._spans.exemplars(reset=reset),
            "slow_queries": self.slow_log.snapshot(reset=reset),
            "batcher": default.batcher.stats(),
            "binary_lane": default.lane.stats(),
            "catalog": self._catalog.describe(),
            "durability": (self._state.status()
                           if self._state is not None else None),
            "service": {
                "vectorised": service.vectorised,
                **service.metrics.as_dict(reset=reset),
            },
        }

    def metrics_snapshot(self, reset: bool = False) -> dict:
        """The ``metrics`` verb's reply: the Prometheus exposition of
        the gateway and current-service registries.

        With ``reset``, counters and histograms are drained atomically
        per child *as the text is rendered*, so scrape windows never
        lose increments; gauges and the batcher's collector output
        describe live state and persist.
        """
        text = self.metrics_exposition(reset=reset)
        if reset:
            self.stats.started_at = time.monotonic()
            self._catalog.default.service.metrics.started_at = \
                time.monotonic()
            self.slow_log.reset()
        return {"content_type": CONTENT_TYPE, "exposition": text}

    def metrics_exposition(self, reset: bool = False) -> str:
        """Prometheus text for the HTTP endpoint / ``metrics`` verb."""
        self.stats.flush()
        const_labels = None
        if self._config.worker_label is not None:
            const_labels = {"worker": self._config.worker_label}
        return render(self.stats.registry,
                      self._catalog.default.service.metrics.registry,
                      reset=reset, const_labels=const_labels)

    # -- hot index swap -------------------------------------------------
    def install(self, entry: CatalogEntry, service: QueryService, *,
                scheme: str | None = None,
                label_bytes: int | None = None) -> None:
        """Atomically swap ``entry``'s serving backend to ``service``.

        The one generation-swap primitive for every index: ``reload``
        (of entry 0 or a named entry), ``catalog build``/``load`` and
        the fleet worker's parent-commanded swaps all land here.  Every
        micro-batch flush snapshots the service it answers from, so
        in-flight flushes finish on the old generation and later
        flushes see the new one — never a mix.  The replaced service
        is let go, not closed: it owns only memory, freed once its last
        flush returns.  A swap of the default index ends degraded mode.
        """
        self._catalog.install(entry, service, scheme=scheme,
                              label_bytes=label_bytes)
        if entry.index_id == DEFAULT_INDEX_ID:
            self._degraded = None
        self.stats.swap()

    async def drop_tenant(self, name: str) -> CatalogEntry:
        """Drop a named catalog entry and drain its lanes.

        The programmatic twin of the ``catalog drop`` verb — used by
        the fleet worker's parent-commanded drop.
        """
        entry = self._catalog.drop(name)
        await self._retire_entry(entry)
        self.slo.drop(entry.name)
        return entry

    def note_degraded(self, reason: str) -> None:
        """Enter degraded mode (a failed swap keeps the last good
        index serving; ``health`` reports the reason).

        Entering degraded mode is a flight-recorder dump trigger: the
        ring as of the fault lands in ``flight_dir`` for offline
        debugging."""
        entering = self._degraded is None
        self._degraded = reason
        self.flight.record("degraded", reason=reason)
        if entering:
            self.flight.dump(reason="degraded")

    async def _reload(self, payload: dict) -> dict:
        if self._config.reload_handler is not None:
            # Fleet mode: the parent rebuilds once and swaps every
            # worker via install; this process only forwards.
            try:
                return await self._config.reload_handler(payload)
            except ProtocolError:
                raise
            except (ReproError, OSError) as exc:
                self.note_degraded(f"{type(exc).__name__}: {exc}")
                raise ProtocolError(protocol.ERR_RELOAD_FAILED,
                                    str(exc)) from None
        # An optional ``name`` field targets a catalog entry; absent
        # (or "default") reloads entry 0.  The ``index`` field stays
        # the saved-index *path*, as it always was.
        entry = self._catalog.lookup(payload.get("name"))
        graph_path = payload.get("graph")
        index_path = payload.get("index")
        if bool(graph_path) == bool(index_path):
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                "reload requires exactly one of 'graph' or 'index'")
        scheme = payload.get("scheme", entry.scheme)
        if not isinstance(scheme, str):
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "scheme must be a string")

        def rebuild():
            from repro.core.base import build_index
            from repro.core.serialize import load_dual_index
            from repro.graph.io import read_edge_list

            started = time.perf_counter()
            if index_path:
                index = load_dual_index(index_path)
            else:
                index = build_index(read_edge_list(graph_path),
                                    scheme=scheme)
            return index, time.perf_counter() - started

        assert self._loop is not None and self._reload_executor is not None
        try:
            index, seconds = await self._loop.run_in_executor(
                self._reload_executor, rebuild)
        except (ReproError, OSError) as exc:
            # Degraded mode: keep serving the last good index and say
            # so — a failed swap must never take the service down.  A
            # failed *tenant* reload degrades only that entry's answer
            # (it keeps its last good index), never the whole server.
            if entry.index_id == DEFAULT_INDEX_ID:
                self.note_degraded(f"{type(exc).__name__}: {exc}")
            raise ProtocolError(protocol.ERR_RELOAD_FAILED,
                                str(exc)) from None
        scheme_name = type(index).scheme_name or scheme
        # Admission (budget) runs before the durable commit: an
        # over-budget index must never reach the journal.
        label = self._catalog.check_budget(entry, index)
        if self._state is not None:
            await self._persist_install(entry, index, scheme_name,
                                        label)
        new_service = QueryService(index)
        if self._config.service_wrapper is not None:
            new_service = self._config.service_wrapper(new_service)
        self.install(entry, new_service, scheme=scheme_name,
                     label_bytes=label)
        stats = index.stats()
        for phase, phase_secs in stats.phase_seconds.items():
            self._build_phases.record(phase, phase_secs)
        return {
            "swapped": True,
            "index_name": entry.name,
            "generation": entry.generation,
            "scheme": entry.scheme,
            "source": "index" if index_path else "graph",
            "nodes": stats.num_nodes,
            "edges": stats.num_edges,
            "build_seconds": seconds,
            "phase_seconds": dict(stats.phase_seconds),
            "index_swaps": self.stats.swaps,
        }

    async def _persist_install(self, entry: CatalogEntry, index,
                               scheme_name: str, label: int) -> None:
        """Make a freshly built generation durable *before* it serves.

        Runs on the reload executor (artifact write + fsync can take
        a while on big indexes): save the new generation's artifact,
        then append+fsync the journal ``install`` record — the commit
        point.  Only after this returns does the in-memory install
        happen and the client get its acknowledgement, so an acked
        swap survives any crash; a crash *before* the journal fsync
        leaves an unreferenced artifact that recovery GCs.
        """
        state = self._state
        name = entry.name
        index_id = entry.index_id

        def persist() -> None:
            generation = state.next_generation(name)
            artifact = state.save_index(index, name, generation)
            state.record_install(
                name, index_id=index_id, scheme=scheme_name,
                generation=generation, label_bytes=label,
                artifact=artifact)

        assert self._loop is not None \
            and self._reload_executor is not None
        try:
            await self._loop.run_in_executor(self._reload_executor,
                                             persist)
        except (ReproError, OSError) as exc:
            # A generation that cannot be made durable must not serve:
            # the swap is refused and the last good index keeps
            # answering (degraded when it was the default's swap).
            if index_id == DEFAULT_INDEX_ID:
                self._degraded = f"{type(exc).__name__}: {exc}"
            raise ProtocolError(
                protocol.ERR_RELOAD_FAILED,
                f"durable persist failed: {exc}") from None

    # -- catalog verbs --------------------------------------------------
    async def _catalog_op(self, payload: dict) -> Any:
        """Serve one ``catalog`` request (op shapes documented in
        :mod:`repro.server.tenancy`).

        ``list`` always answers from the local catalog; mutations
        (``create``/``build``/``load``/``drop``/``quota``) go through
        the fleet delegate when one is configured, so every worker's
        catalog moves together.
        """
        op = payload.get("op")
        if not isinstance(op, str):
            raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                "catalog requires an 'op' field")
        if op == "list":
            return {"indexes": self._catalog.describe()}
        if op not in ("create", "build", "load", "drop", "quota"):
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                f"unknown catalog op {op!r}; supported: create, build, "
                f"load, drop, quota, list")
        if self._config.catalog_handler is not None:
            try:
                return await self._config.catalog_handler(payload)
            except ProtocolError:
                raise
            except (ReproError, OSError) as exc:
                raise ProtocolError(protocol.ERR_RELOAD_FAILED,
                                    str(exc)) from None
        if op == "create":
            quota = TenantQuota.from_payload(payload.get("quota"))
            scheme = payload.get("scheme", self._catalog.default.scheme)
            if not isinstance(scheme, str):
                raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                    "scheme must be a string")
            entry = self._catalog.create(payload.get("name"),
                                         scheme=scheme, quota=quota)
            if self._state is not None:
                try:
                    self._state.record_create(
                        entry.name, index_id=entry.index_id,
                        scheme=scheme, quota=quota.as_dict())
                except (ReproError, OSError) as exc:
                    # Undo before replying: a create that never became
                    # durable must not exist anywhere.
                    self._catalog.drop(entry.name)
                    raise ProtocolError(
                        protocol.ERR_RELOAD_FAILED,
                        f"durable journal append failed: {exc}"
                    ) from None
            self.flight.record("catalog", op="create",
                               index=entry.name)
            return {"created": entry.name, "index_id": entry.index_id,
                    "quota": entry.quota.as_dict()}
        if op == "quota":
            entry = self._catalog.lookup(payload.get("name"))
            quota = TenantQuota.from_payload(payload.get("quota"))
            if self._state is not None \
                    and entry.index_id != DEFAULT_INDEX_ID:
                # Journal + fsync *before* the in-memory apply, like
                # create: an acked quota change must survive a crash.
                # (The default entry is not a journaled catalog row,
                # so its quota stays runtime-only.)
                try:
                    self._state.record_quota(entry.name,
                                             quota.as_dict())
                except (ReproError, OSError) as exc:
                    raise ProtocolError(
                        protocol.ERR_RELOAD_FAILED,
                        f"durable journal append failed: {exc}"
                    ) from None
            self._catalog.update_quota(entry, quota)
            self.flight.record("catalog", op="quota",
                               index=entry.name)
            return {"updated": entry.name, "index_id": entry.index_id,
                    "quota": quota.as_dict()}
        if op == "drop":
            entry = self._catalog.drop(payload.get("name"))
            if self._state is not None:
                # Journal after the in-memory drop (which did the
                # validation); a journal-append failure here leaves
                # the entry durable, so a restart resurrects it — the
                # error reply tells the operator the drop did not
                # commit.
                try:
                    self._state.record_drop(entry.name)
                except (ReproError, OSError) as exc:
                    await self._retire_entry(entry)
                    raise ProtocolError(
                        protocol.ERR_RELOAD_FAILED,
                        f"durable journal append failed: {exc}"
                    ) from None
            await self._retire_entry(entry)
            self.slo.drop(entry.name)
            self.flight.record("catalog", op="drop", index=entry.name)
            return {"dropped": entry.name, "index_id": entry.index_id}
        # build / load: install an index into an existing named entry
        # (the tenant twin of ``reload``, which owns the machinery).
        entry = self._catalog.lookup(payload.get("name"))
        if entry.index_id == DEFAULT_INDEX_ID:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                "use the reload verb for the default index")
        field_name = "graph" if op == "build" else "index"
        source = payload.get(field_name)
        if not isinstance(source, str) or not source:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                f"catalog {op} requires a {field_name!r} path")
        reload_payload: dict[str, Any] = {"name": entry.name,
                                          field_name: source}
        if "scheme" in payload:
            reload_payload["scheme"] = payload["scheme"]
        return await self._reload(reload_payload)

    async def _retire_entry(self, entry: CatalogEntry) -> None:
        """Drain a dropped entry: close its lanes, let go of its
        service.

        Closing the lanes flushes everything already enqueued (those
        queries answer from the entry's per-flush service snapshot) and
        wakes blocked waiters with ``overloaded``; requests arriving
        after the drop answer ``unknown_index`` at resolution.
        """
        await self._close_lanes(entry)
        entry.batcher = None
        entry.lane = None
        entry.service = None

    # -- Prometheus HTTP scrape endpoint --------------------------------
    async def _handle_metrics_http(self, reader: asyncio.StreamReader,
                                   writer: asyncio.StreamWriter
                                   ) -> None:
        """Minimal HTTP/1.0-style handler: ``GET /metrics`` only.

        One request per connection (``Connection: close``), which is
        all a Prometheus scraper needs and keeps the handler tiny —
        the endpoint exists so standard scrape/alerting infrastructure
        works without speaking the JSON protocol.
        """
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=5.0)
            parts = request_line.decode("latin-1").split()
            # Drain the headers (bounded by the reader's default limit).
            while True:
                header = await asyncio.wait_for(reader.readline(),
                                                timeout=5.0)
                if header in (b"\r\n", b"\n", b""):
                    break
            if len(parts) >= 2 and parts[0] == "GET" \
                    and parts[1].split("?", 1)[0] == "/metrics":
                body = self.metrics_exposition().encode("utf-8")
                head = (f"HTTP/1.0 200 OK\r\n"
                        f"Content-Type: {CONTENT_TYPE}\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        f"Connection: close\r\n\r\n")
            else:
                body = b"not found\n"
                head = (f"HTTP/1.0 404 Not Found\r\n"
                        f"Content-Type: text/plain\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        f"Connection: close\r\n\r\n")
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError, UnicodeDecodeError,
                asyncio.TimeoutError, TimeoutError,
                asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    # -- access log -----------------------------------------------------
    def _open_access_log(self) -> None:
        target = self._config.access_log
        if target is None:
            self._log_file = None
        elif target == "-":
            self._log_file = sys.stderr
            self._owns_log_file = False
        else:
            self._log_path = Path(target)
            self._log_file = self._log_path.open("a", encoding="utf-8")
            self._owns_log_file = True
            try:
                self._log_bytes = self._log_path.stat().st_size
            except OSError:
                self._log_bytes = 0

    def _rotate_access_log(self) -> None:
        """Move the full log to ``<path>.1`` and start a fresh file.

        One rotation generation bounds disk use at roughly twice
        ``access_log_max_bytes`` without the bookkeeping of a numbered
        chain; the displaced ``.1`` file is overwritten.
        """
        assert self._log_file is not None and self._log_path is not None
        try:
            self._log_file.close()
            self._log_path.replace(
                self._log_path.with_name(self._log_path.name + ".1"))
            self._log_file = self._log_path.open("a", encoding="utf-8")
            self._log_bytes = 0
        except OSError:
            self._log_file = None  # rotation failed; stop logging

    def _log_event(self, event: str, fields: dict) -> None:
        """One non-request access-log line (SLO alert transitions):
        same sink, same JSON shape, distinguished by an ``event``
        field instead of a ``verb``."""
        if self._log_file is None:
            return
        record: dict[str, Any] = {"ts": round(time.time(), 6),
                                  "event": event}
        record.update({key: value for key, value in fields.items()
                       if key != "ts"})
        try:
            self._log_file.write(
                json.dumps(record, separators=(",", ":")) + "\n")
            self._log_file.flush()
        except (OSError, ValueError):
            self._log_file = None

    def _log_access(self, conn_id: int, verb: str, num_pairs: int,
                    seconds: float, code: str | None,
                    trace: str | None = None,
                    spans: dict[str, float] | None = None,
                    index: str | None = None) -> None:
        if self._log_file is None:
            return
        record: dict[str, Any] = {
            "ts": round(time.time(), 6),
            "conn": conn_id,
            "verb": verb,
            "pairs": num_pairs,
            "ms": round(seconds * 1000.0, 3),
            "status": code or "ok",
        }
        if index is not None:
            record["index"] = index
        if trace is not None:
            record["trace"] = trace
        if spans is not None:
            record["stages_ms"] = {
                stage: round(sec * 1000.0, 3)
                for stage, sec in spans.items()}
        try:
            line = json.dumps(record, separators=(",", ":")) + "\n"
            self._log_file.write(line)
            self._log_file.flush()
        except (OSError, ValueError):
            self._log_file = None  # log target died; keep serving
            return
        max_bytes = self._config.access_log_max_bytes
        if max_bytes is not None and self._owns_log_file:
            self._log_bytes += len(line)
            if self._log_bytes > max_bytes:
                self._rotate_access_log()


class Supervisor:
    """Restart a crashed serving task with capped exponential backoff.

    ``factory`` builds and runs one *generation*: an async callable
    that returns on clean shutdown and raises when the serving task
    crashes.  Each crash is recorded and the factory is re-run after a
    backoff delay that doubles from ``base_delay`` up to ``max_delay``
    (with deterministic ±``jitter`` when a ``seed`` is given).  A
    generation that stays up for ``healthy_after`` seconds resets the
    backoff and the restart budget — so a long-lived server gets a
    fresh allowance for the next incident, while a crash loop exhausts
    ``max_restarts`` and re-raises the final exception.

    ``CancelledError`` always propagates: supervision never swallows a
    deliberate shutdown.
    """

    def __init__(self, factory, *, max_restarts: int | None = 8,
                 base_delay: float = 0.1, max_delay: float = 5.0,
                 jitter: float = 0.25, healthy_after: float = 30.0,
                 seed: int | None = None, on_restart=None) -> None:
        if base_delay <= 0 or max_delay < base_delay:
            raise ValueError(
                "need 0 < base_delay <= max_delay, got "
                f"{base_delay}/{max_delay}")
        self._factory = factory
        self._max_restarts = max_restarts
        self._base_delay = base_delay
        self._max_delay = max_delay
        self._jitter = jitter
        self._healthy_after = healthy_after
        self._on_restart = on_restart
        self._rng = random.Random(seed)
        #: Total restarts performed over the supervisor's lifetime.
        self.restarts = 0
        #: ``(exception repr, backoff seconds)`` per crash, in order.
        self.crashes: list[tuple[str, float]] = []

    def _backoff(self, consecutive: int) -> float:
        delay = min(self._base_delay * (2 ** (consecutive - 1)),
                    self._max_delay)
        if self._jitter:
            delay *= 1.0 + self._jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    async def run(self) -> None:
        """Run generations until one exits cleanly or the budget is
        spent (the last crash's exception is re-raised)."""
        consecutive = 0
        while True:
            started = time.monotonic()
            try:
                await self._factory()
                return
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                if time.monotonic() - started >= self._healthy_after:
                    consecutive = 0  # it ran healthily; fresh budget
                consecutive += 1
                if self._max_restarts is not None \
                        and consecutive > self._max_restarts:
                    raise
                delay = self._backoff(consecutive)
                self.restarts += 1
                self.crashes.append((repr(exc), delay))
                if self._on_restart is not None:
                    self._on_restart(exc, delay, self.restarts)
                await asyncio.sleep(delay)


class ServerThread:
    """Run a :class:`ReachServer` on a dedicated background thread.

    The thread owns its own event loop; :meth:`start` blocks until the
    listening socket is bound (so ``.port`` is valid) and re-raises any
    startup failure.  Used by the tests, the ``serve-load`` benchmark,
    and the load generator's self-serve mode.
    """

    def __init__(self, server: ReachServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-server")
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            await self.server.stop()

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
