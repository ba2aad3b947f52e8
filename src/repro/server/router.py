"""The worker-fleet front: shared port, shared labels, one supervisor.

:class:`WorkerFleet` scales the gateway past the single-interpreter
ceiling (~42k qps, BENCH_serve.json): the dual-labeling arrays are
immutable after build, so the parent builds **once**, publishes the
index into a shared-memory segment (:mod:`repro.core.shm`), and spawns
``N`` :mod:`repro.server.worker` processes that each attach and serve.

Routing is *accept sharding*: the parent reserves the port with a
bound (never listening) ``SO_REUSEPORT`` socket and every worker
listens on the same address with ``SO_REUSEPORT`` set, so the kernel
distributes incoming connections across the workers.  A userspace
dispatch ring was rejected deliberately — a Python router process
would itself be GIL-bound at roughly the single-server qps ceiling,
capping the fleet at 1× no matter how many workers sit behind it.

Generation-aware hot swap: any worker that receives a ``reload`` or a
mutating ``catalog`` op forwards it here, and the parent runs it
through the same :class:`~repro.server.tenancy.CatalogMutator` as a
single server.  Every catalog entry — entry 0, the default index, like
every tenant — has its own shared-memory segment per generation: the
parent rebuilds (or loads) the entry's new index once, journals it,
publishes it as generation ``g+1``, sends every worker the entry's
row, waits for the acks, unlinks generation ``g``, and only then
releases the requesting worker's reply — so a success reply is never
observable before the whole fleet serves the new index, and each
worker's per-flush service snapshot guarantees no micro-batch ever
mixes generations.  A worker that fails to ack in time is killed and
respawned directly onto the new generation.

Supervision extends the PR-4 :class:`~repro.server.server.Supervisor`
semantics to processes: a dead worker (crash, SIGKILL) is respawned
with capped exponential backoff onto the *current* generation and
rejoins the accept sharding by re-binding the shared port; a worker
that stayed up ``healthy_after`` seconds earns back its restart
budget, while a crash loop exhausts ``max_restarts`` and leaves the
fleet running degraded on the surviving workers.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
import secrets
import socket
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any

from repro.core.shm import (SEGMENT_PREFIX, PublishedIndex,
                            publish_index, sweep_stale_segments)
from repro.exceptions import ReproError
from repro.obs.flight import FlightRecorder
from repro.obs.prometheus import CONTENT_TYPE, merge_expositions
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.server.tenancy import (DEFAULT_INDEX, DEFAULT_INDEX_ID,
                                  CatalogEntry, CatalogMutator,
                                  CatalogService, EntryRow, Mutation)
from repro.server.worker import worker_main

__all__ = ["FleetError", "WorkerFleet"]


class FleetError(ReproError):
    """The fleet could not start or lost its last worker."""


class _ScrapeJob:
    """One in-flight fleet-wide metrics collection.

    Created by any thread (:meth:`WorkerFleet.scrape`, the HTTP
    endpoint); broadcast and completed on the monitor thread, which
    owns the control pipes.  The caller blocks on ``event`` and takes
    whatever workers answered by the deadline — a hung worker degrades
    the scrape to the survivors instead of wedging it.
    """

    __slots__ = ("token", "expected", "results", "event", "deadline")

    def __init__(self, token: int, deadline: float) -> None:
        self.token = token
        self.expected: set[int] = set()
        self.results: dict[int, str] = {}
        self.event = threading.Event()
        self.deadline = deadline


class _WorkerHandle:
    """Parent-side state of one worker process."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn = None
        self.ready = False
        self.started_at = 0.0
        self.consecutive_crashes = 0
        #: Restart budget exhausted — the supervisor gave up on this
        #: slot and the fleet runs degraded on the survivors.
        self.abandoned = False
        #: The current process's death was reported (see
        #: :meth:`WorkerFleet._poll_control`).
        self.exited = False
        # Liveness-probe state: sequence of the outstanding ping (if
        # any), when it was sent, and when the last probe round ran.
        self.ping_seq = 0
        self.ping_sent: float | None = None
        self.last_probe = 0.0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class WorkerFleet:
    """``N`` worker processes serving one index from shared memory.

    Parameters
    ----------
    index:
        A Dual-I or Dual-II index — the parent publishes its image
        and never serves queries itself.
    scheme:
        Scheme tag reported by the workers (``dual-i`` / ``dual-ii``).
    workers:
        Fleet size.  Near-linear qps scaling requires at least that
        many usable cores; on fewer cores the fleet is capacity-bound
        but still correct.
    host / port:
        The shared listening address (``0`` picks a free port).
    tenants:
        Startup entries as :class:`~repro.server.tenancy.EntryRow`
        rows: restored ones (with an ``index_id``) resume their
        durable generation, new ones are created and installed through
        the catalog mutation path.  A row's ``index`` is published into
        a per-index ``/dev/shm`` segment at start and then let go; a row
        without one stays registered but empty.  Further tenants can be
        added at runtime through the ``catalog`` verb — any worker
        forwards mutations here and the parent moves the whole fleet
        together.
    server_options:
        Picklable :class:`~repro.server.server.ServerConfig` keywords
        applied to every worker (``max_batch``, ``policy``, ...).
    max_restarts / base_delay / max_delay / jitter / healthy_after /
    seed:
        Per-worker supervisor knobs, matching
        :class:`~repro.server.server.Supervisor`.
    start_timeout / swap_timeout:
        Seconds to wait for worker readiness at start / for swap acks
        during a reload before the straggler is killed and respawned.
    probe_interval / probe_timeout:
        Liveness probing: every ``probe_interval`` seconds the parent
        pings each worker over its control pipe; a worker silent for
        ``probe_timeout`` seconds is killed and respawned.  This is
        what bounds recovery from a *hung* (not dead) worker — its
        kernel listen queue keeps accepting connections that would
        otherwise black-hole forever.  ``probe_interval=None``
        disables probing.
    metrics_port:
        When set, the parent serves an HTTP ``GET /metrics`` on this
        port (``0`` picks a free one): each request collects every
        live worker's exposition over the control pipes and merges
        them into **one** valid scrape document — the per-worker
        ``worker="<id>"`` labels keep the series distinct, so one
        Prometheus target covers the whole fleet.
    flight_dir:
        When set, the parent's own flight recorder (label ``fleet``,
        supervision events: spawns, deaths, swaps, catalog mutations)
        spills here alongside the workers' rings, and every
        supervisor respawn triggers a dump.
    """

    def __init__(self, index, *, scheme: str = "dual-i",
                 workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0,
                 tenants: list[EntryRow] | None = None,
                 server_options: dict | None = None,
                 max_restarts: int | None = 8,
                 base_delay: float = 0.1, max_delay: float = 5.0,
                 jitter: float = 0.25, healthy_after: float = 30.0,
                 seed: int | None = None,
                 start_timeout: float = 60.0,
                 swap_timeout: float = 30.0,
                 probe_interval: float | None = 2.0,
                 probe_timeout: float = 10.0,
                 state: Any = None,
                 metrics_port: int | None = None,
                 flight_dir: Any = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
            raise FleetError(
                "the worker fleet needs SO_REUSEPORT accept sharding, "
                "which this platform does not offer")
        self._host = host
        self._requested_port = port
        self._server_options = dict(server_options or {})
        self._max_restarts = max_restarts
        self._base_delay = base_delay
        self._max_delay = max_delay
        self._jitter = jitter
        self._healthy_after = healthy_after
        self._rng = random.Random(seed)
        self._start_timeout = start_timeout
        self._swap_timeout = swap_timeout
        self._probe_interval = probe_interval
        self._probe_timeout = probe_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._handles = [_WorkerHandle(i) for i in range(workers)]
        self._base_name = (f"{SEGMENT_PREFIX}{os.getpid()}-"
                           f"{secrets.token_hex(3)}")
        # The parent's catalog registry (no serving backend — every
        # entry's service stays None): one source of truth for names,
        # numeric ids, schemes, quotas and generations, shared with the
        # workers as entry rows.
        self._catalog = CatalogService(None, scheme=scheme)
        # Only the parent carries the durable state (``serve
        # --state-dir``): every fleet-wide catalog mutation is journaled
        # here *before* workers swap and the requester is acknowledged;
        # workers themselves never touch the state dir.
        self._mutator = CatalogMutator(self._catalog, state)
        #: Boot-time degraded reasons: workers spawned before entry 0's
        #: next good install start degraded, as a single server does.
        self._degraded = list(state.degraded) if state is not None else []
        generation = 0
        if state is not None:
            snap = state.entry(DEFAULT_INDEX)
            if snap is not None:
                # Workers mirror the journal generation through their
                # rows, so `catalog list` and reload replies report
                # journal generations fleet-wide.
                generation = snap.generation
            if state.recovery_seconds is not None:
                # The parent recovered once for the whole fleet; hand
                # each worker the number so its exposition carries
                # ``reach_recovery_seconds`` like a single server's.
                self._server_options["recovery_seconds"] = \
                    state.recovery_seconds
        #: Each entry's live ``/dev/shm`` generation, by entry name.
        self._segments: dict[str, PublishedIndex] = {}
        #: Rows whose index is published at :meth:`start`, entry 0
        #: first.
        self._startup: list[EntryRow] = []
        for row in [EntryRow(DEFAULT_INDEX, DEFAULT_INDEX_ID, scheme,
                             generation, index=index), *(tenants or [])]:
            row = self._mutator.adopt(row)
            if row.index is not None:
                self._startup.append(row)
        self._reserve_sock: socket.socket | None = None
        self._port: int | None = None
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        #: Control messages that arrived while a reload orchestration
        #: was draining its acks; replayed afterwards.
        self._deferred: deque = deque()
        self._lock = threading.Lock()
        # Fleet-wide scrape plumbing: jobs queue in from any thread,
        # the monitor thread broadcasts and completes them.
        self._scrape_tokens = itertools.count(1)
        self._scrape_requests: deque[_ScrapeJob] = deque()
        self._scrape_active: dict[int, _ScrapeJob] = {}
        self._requested_metrics_port = metrics_port
        self._metrics_http = None
        self._metrics_thread: threading.Thread | None = None
        self._flight_dir = flight_dir
        #: Supervision-plane flight recorder (label ``fleet``): spawn,
        #: death, swap, and catalog events; dumps on every respawn.
        self.flight = FlightRecorder(1024, label="fleet")
        #: Total worker restarts performed by the fleet supervisor.
        self.restarts = 0
        #: ``(worker_id, reason, backoff seconds)`` per crash.
        self.crashes: list[tuple[int, str, float]] = []
        #: Successful fleet-wide generation swaps.
        self.swaps = 0

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        """The shared listening port all workers accept on."""
        if self._port is None:
            raise RuntimeError("fleet is not started")
        return self._port

    @property
    def workers(self) -> int:
        return len(self._handles)

    @property
    def generation(self) -> int:
        """The default index's current generation (0 at a fresh start,
        the journal's generation at a durable one; +1 per reload)."""
        return self._catalog.default.generation

    @property
    def segment(self) -> str:
        """Shared-memory segment name of the default index's current
        generation."""
        return self._segment_name(DEFAULT_INDEX_ID, self.generation)

    def pids(self) -> list[int]:
        """Live worker PIDs (chaos tests kill/stop these)."""
        return [handle.pid for handle in self._handles
                if handle.alive and handle.pid is not None]

    def start(self, timeout: float | None = None) -> "WorkerFleet":
        """Publish every startup index, reserve the port, spawn the
        fleet.

        Blocks until every worker is listening (or raises
        :class:`FleetError` after cleaning up).
        """
        timeout = self._start_timeout if timeout is None else timeout
        # Reap segments leaked by fleets whose parent died abnormally
        # (SIGKILL skips _teardown): owner-pid liveness plus a magic
        # check keep live fleets' segments untouched.
        sweep_stale_segments()
        try:
            for row in self._startup:
                self._segments[row.name] = publish_index(
                    row.index, name=self._segment_name(row.index_id,
                                                       row.generation))
        except BaseException:
            self._unlink_all()
            raise
        self._startup.clear()
        # The parent's bound-but-not-listening SO_REUSEPORT socket
        # pins the port for the fleet's whole lifetime: port 0 is
        # resolved here once, restarted workers re-bind the same
        # number, and the kernel only hashes connections across the
        # *listening* sockets, so the placeholder never steals one.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self._host, self._requested_port))
        except OSError:
            sock.close()
            self._unlink_all()
            raise
        self._reserve_sock = sock
        self._port = sock.getsockname()[1]
        try:
            for handle in self._handles:
                self._spawn(handle)
            deadline = time.monotonic() + timeout
            while not all(h.ready for h in self._handles):
                if self._deferred:
                    # A reload served from this loop parks late
                    # workers' ``ready`` here (_collect_swap_acks).
                    self._dispatch(self._deferred.popleft(),
                                   during_start=True)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FleetError(
                        f"fleet start timed out: workers "
                        f"{[h.worker_id for h in self._handles if not h.ready]} "
                        f"never reported ready")
                for message in self._poll_control(remaining):
                    self._dispatch(message, during_start=True)
        except BaseException:
            self._teardown()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True,
            name="repro-fleet-monitor")
        self._monitor.start()
        self.flight.record("fleet_start", workers=self.workers,
                           port=self._port)
        if self._flight_dir is not None:
            # Recorded-before-started: the spiller's immediate first
            # pass must already see fleet_start, or an early kill
            # leaves no file.
            self.flight.start_spiller(str(self._flight_dir))
        if self._requested_metrics_port is not None:
            self._start_metrics_http()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop workers, unlink shared memory."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout)
            self._monitor = None
        self._teardown(timeout)

    def _teardown(self, timeout: float = 10.0) -> None:
        self._stopping.set()
        if self._metrics_http is not None:
            self._metrics_http.shutdown()
            self._metrics_http.server_close()
            self._metrics_http = None
            if self._metrics_thread is not None:
                self._metrics_thread.join(5.0)
                self._metrics_thread = None
        self.flight.record("fleet_stop")
        self.flight.stop_spiller()
        # Release any scrape callers still parked on the monitor.
        with self._lock:
            stuck = list(self._scrape_requests)
            self._scrape_requests.clear()
        stuck.extend(self._scrape_active.values())
        self._scrape_active.clear()
        for job in stuck:
            job.event.set()
        self._send(("stop",))
        deadline = time.monotonic() + timeout
        for handle in self._handles:
            if handle.process is not None:
                handle.process.join(
                    max(0.1, deadline - time.monotonic()))
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(5.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
                handle.conn = None
        self._unlink_all()
        if self._reserve_sock is not None:
            self._reserve_sock.close()
            self._reserve_sock = None

    def _unlink_all(self) -> None:
        """Unlink every catalog entry's current segment."""
        for published in self._segments.values():
            published.unlink()
        self._segments.clear()

    def _segment_name(self, index_id: int, generation: int) -> str:
        return f"{self._base_name}-i{index_id}-g{generation}"

    def _row(self, entry: CatalogEntry) -> EntryRow:
        """``entry`` as the row workers register and attach."""
        published = self._segments.get(entry.name)
        return entry.row(published.name if published else None)

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- worker processes -----------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        options = dict(self._server_options)
        # Current catalog manifest, entry 0 first: a respawned worker
        # attaches every entry's *current* generation, not the one at
        # fleet start.
        options["catalog"] = [self._row(entry)
                              for entry in self._catalog.entries()]
        options["degraded"] = list(self._degraded)
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.worker_id, self._host, self._port, options,
                  child_conn),
            daemon=True,
            name=f"repro-worker-{handle.worker_id}")
        process.start()
        child_conn.close()
        handle.process = process
        handle.exited = False
        handle.conn = parent_conn
        handle.ready = False
        handle.started_at = time.monotonic()
        handle.ping_sent = None
        handle.last_probe = time.monotonic()

    def _poll_control(self, timeout: float) -> list[tuple]:
        """One ``connection.wait`` round over worker pipes + sentinels.

        Returns ``("msg", handle, message)`` and ``("died", handle)``
        events; closed pipes surface as deaths once the sentinel
        fires.
        """
        conns = {h.conn: h for h in self._handles
                 if h.conn is not None}
        # Every unreported process, dead or alive: a process that died
        # while no wait was running (and that another thread's
        # ``is_alive()`` already reaped) still has a ready sentinel.
        sentinels = {h.process.sentinel: h for h in self._handles
                     if h.process is not None and not h.exited}
        waitables = list(conns) + list(sentinels)
        if not waitables:
            time.sleep(min(timeout, 0.05))
            return []
        events: list[tuple] = []
        for obj in mp_connection.wait(waitables, timeout):
            if obj in conns:
                handle = conns[obj]
                try:
                    while handle.conn.poll():
                        events.append(("msg", handle,
                                       handle.conn.recv()))
                except (EOFError, OSError):
                    pass  # the sentinel will report the death
            else:
                sentinels[obj].exited = True
                events.append(("died", sentinels[obj]))
        return events

    # -- supervision ----------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stopping.is_set():
            while self._deferred and not self._stopping.is_set():
                self._dispatch(self._deferred.popleft())
            self._start_scrapes()
            for event in self._poll_control(0.2):
                if self._stopping.is_set():
                    break
                self._dispatch(event)
            self._run_probes()
            self._expire_scrapes()

    def _run_probes(self) -> None:
        """Ping ready workers; kill one that stayed silent too long.

        Timeouts are checked *after* this iteration's pipe drain, so a
        pong that queued while the monitor was busy (a long rebuild
        during a fleet reload) counts before the deadline does — only
        a genuinely unresponsive worker is replaced.
        """
        if self._probe_interval is None:
            return
        now = time.monotonic()
        for handle in self._handles:
            if not (handle.ready and handle.alive
                    and handle.conn is not None):
                continue
            if handle.ping_sent is not None:
                if now - handle.ping_sent > self._probe_timeout:
                    self.crashes.append(
                        (handle.worker_id,
                         "liveness probe timed out", 0.0))
                    handle.ping_sent = None
                    handle.process.kill()
            elif now - handle.last_probe >= self._probe_interval:
                handle.ping_seq += 1
                handle.last_probe = now
                if self._send(("ping", handle.ping_seq), [handle]):
                    handle.ping_sent = now

    def _dispatch(self, event: tuple,
                  during_start: bool = False) -> None:
        kind, handle = event[0], event[1]
        if kind == "died":
            if during_start:
                raise FleetError(
                    f"worker {handle.worker_id} exited during startup")
            self._restart(handle)
            return
        message = event[2]
        verb = message[0]
        if verb == "ready":
            handle.ready = True
        elif verb == "pong":
            handle.ping_sent = None
        elif verb == "mutate":
            _, worker_id, token, request_verb, payload = message
            self._mutate(handle, token, request_verb, payload)
        elif verb == "scrape_result":
            _, worker_id, token, text = message
            job = self._scrape_active.get(token)
            if job is not None:
                job.results[worker_id] = text
                if set(job.results) >= job.expected:
                    self._scrape_active.pop(token, None)
                    job.event.set()
        elif verb in ("attach_failed", "start_failed"):
            # The worker exits right after sending this; the sentinel
            # delivers the restart.  Keep the reason for the crash log.
            self.crashes.append(
                (handle.worker_id, f"{verb}: {message[2]}", 0.0))
            if during_start:
                raise FleetError(
                    f"worker {handle.worker_id} failed to start: "
                    f"{message[2]}")
        # "swapped" outside an orchestration window and "bye"
        # acknowledgements need no action here.

    def _backoff(self, consecutive: int) -> float:
        delay = min(self._base_delay * (2 ** (consecutive - 1)),
                    self._max_delay)
        if self._jitter:
            delay *= 1.0 + self._jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def _restart(self, handle: _WorkerHandle) -> None:
        """Supervisor action for one dead worker: backoff, respawn
        onto the current generation, rejoin the shared port."""
        if handle.process is not None:
            handle.process.join(0.1)
        uptime = time.monotonic() - handle.started_at
        if uptime >= self._healthy_after:
            handle.consecutive_crashes = 0  # earned a fresh budget
        handle.consecutive_crashes += 1
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        handle.process = None
        handle.ready = False
        self.flight.record("worker_died", worker=handle.worker_id,
                           uptime=round(uptime, 3))
        if self._max_restarts is not None \
                and handle.consecutive_crashes > self._max_restarts:
            handle.abandoned = True
            self.crashes.append(
                (handle.worker_id, "restart budget exhausted", 0.0))
            self.flight.record("worker_abandoned",
                               worker=handle.worker_id)
            self.flight.dump(reason="abandoned")
            if not any(h.alive or not h.abandoned
                       for h in self._handles):
                # Last worker gone: nothing serves the port any more.
                self._stopping.set()
            return
        delay = self._backoff(handle.consecutive_crashes)
        self.crashes.append(
            (handle.worker_id, "worker process died", delay))
        if self._stopping.wait(delay):
            return
        self.restarts += 1
        self._spawn(handle)
        self.flight.record("worker_respawn", worker=handle.worker_id,
                           restarts=self.restarts,
                           backoff=round(delay, 3))
        # A respawn is a fault-window trigger: persist the supervision
        # ring so post-mortems see what led up to the death even if the
        # parent dies next.
        self.flight.dump(reason="respawn")

    # -- generation-aware fleet reload ----------------------------------
    def reload(self, *, graph=None, index=None,
               scheme: str | None = None,
               name: str | None = None) -> dict:
        """Parent-initiated fleet reload (same contract as the verb).

        Goes through a real worker connection on purpose, so the
        public entry point and a client-sent ``reload`` exercise the
        identical forward → rebuild → publish → swap → ack pipeline.
        ``name`` targets a named entry, as in the verb.
        """
        from repro.server.client import ReachClient

        with ReachClient(self._host, self.port, timeout=180.0) as client:
            return client.reload(graph=graph, index=index, scheme=scheme,
                                 name=name)

    # -- fleet-wide catalog mutations -----------------------------------
    def _mutate(self, requester: _WorkerHandle, token: int, verb: str,
                payload: dict) -> None:
        """Run one forwarded mutation through the shared path, move
        every worker, then answer the requester.

        Runs on the monitor thread; control messages that arrive while
        the acks drain are deferred, which serialises concurrent
        mutations (a second reload rebuilds on top of the first's
        generation — last writer wins, as on the single server).
        """
        m: Mutation | None = None
        try:
            m = self._mutator.parse(verb, payload)
            self._mutator.prepare(m)
            ok, doc = True, self._apply(m)
        except Exception as exc:
            # Catch-all on purpose: this runs on the monitor thread,
            # and an escaped exception would kill the fleet's whole
            # control plane, not just this request.
            if not isinstance(exc, ProtocolError):
                exc = ProtocolError(
                    protocol.ERR_RELOAD_FAILED if isinstance(exc, OSError)
                    else protocol.ERR_INTERNAL,
                    f"{type(exc).__name__}: {exc}")
            ok, doc = False, {
                "code": exc.code, "message": exc.message,
                "degrades": exc.code == protocol.ERR_RELOAD_FAILED
                and m is not None and m.on_default}
        self._send(("result", token, ok, doc), [requester])

    def _apply(self, m: Mutation) -> dict:
        """Commit a prepared ``m`` and move every worker to it; returns
        the requester's result.

        The fleet's one serving step.  An install publishes the entry's
        next ``/dev/shm`` generation first, so a failed publish changes
        nothing in memory.  Every worker then gets the entry's row (or
        the drop); pipes are FIFO, so the requester applies it before
        it reads its result.  A new segment must be acked by every
        worker — stragglers are killed and respawn onto it — before the
        old one is unlinked and the requester answered.
        """
        old = None
        if m.op == "install":
            if m.generation is None:
                m.generation = m.entry.generation + 1
            old = self._segments.get(m.name)
            # ``m.index`` is the image: publishing only copies bytes.
            self._segments[m.name] = publish_index(
                m.index, name=self._segment_name(m.entry.index_id,
                                                 m.generation))
            if m.on_default:
                self._degraded.clear()
        entry = self._mutator.commit(m)
        doc = self._mutator.reply(m)
        if m.op == "drop":
            # Workers attach at spawn/swap time only, so the segment
            # can be unlinked once the drop is sent — attached copies
            # stay valid.
            self._send(("drop", m.name))
            old = self._segments.pop(m.name, None)
        else:
            targets = self._send(("entry", self._row(entry)))
            if m.op == "install":
                acked = self._collect_swap_acks(
                    targets, self._segments[m.name].name)
                self.swaps += 1
                doc.update(index_swaps=self.swaps, workers=len(acked))
        if old is not None:
            old.unlink()
        self.flight.record("catalog", op=m.op, index=m.name,
                           generation=entry.generation)
        return doc

    def _send(self, message: tuple,
              handles: list[_WorkerHandle] | None = None
              ) -> list[_WorkerHandle]:
        """Send ``message`` over the control pipe to every live worker
        of ``handles`` (by default the whole fleet); returns those it
        reached."""
        sent = []
        for handle in (self._handles if handles is None else handles):
            if handle.conn is None or not handle.alive:
                continue
            try:
                handle.conn.send(message)
            except (BrokenPipeError, OSError):
                continue  # dying: its sentinel reports the death
            sent.append(handle)
        return sent

    def _collect_swap_acks(self, targets, segment: str) -> set:
        """Drain worker pipes until every target answered ``segment``
        (or the swap timeout passes), then kill each target that does
        not serve it: the supervisor respawns it onto the new
        generation.  Other messages are deferred for the monitor
        loop."""
        acked: set[_WorkerHandle] = set()
        answered: set[_WorkerHandle] = set()
        deadline = time.monotonic() + self._swap_timeout
        while len(answered) < len(targets):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for event in self._poll_control(remaining):
                message = event[2] if event[0] == "msg" else ("",)
                if message[0] == "swapped" and message[2] == segment:
                    answered.add(event[1])
                    if message[3] is None:
                        acked.add(event[1])
                else:
                    self._deferred.append(event)
        for handle in targets:
            if handle not in acked and handle.alive:
                handle.process.kill()
        return acked

    # -- fleet-wide metrics scrape --------------------------------------
    def scrape(self, timeout: float = 5.0) -> str:
        """One merged Prometheus exposition covering every live worker.

        Callable from any thread: the job is handed to the monitor
        thread (which owns the control pipes), each ready worker
        answers with its own exposition, and the texts are merged into
        a single valid scrape document — per-worker ``worker="<id>"``
        labels keep every series attributable.  Workers that fail to
        answer within ``timeout`` are simply absent from the result,
        so a hung worker degrades the scrape instead of failing it.
        """
        job = _ScrapeJob(next(self._scrape_tokens),
                         time.monotonic() + timeout)
        if self._stopping.is_set():
            return ""
        with self._lock:
            self._scrape_requests.append(job)
        job.event.wait(timeout + 1.0)
        texts = [job.results[wid] for wid in sorted(job.results)]
        return merge_expositions(texts)

    def _start_scrapes(self) -> None:
        """Broadcast queued scrape jobs (monitor thread only)."""
        while True:
            with self._lock:
                if not self._scrape_requests:
                    return
                job = self._scrape_requests.popleft()
            ready = [h for h in self._handles if h.ready]
            job.expected.update(
                h.worker_id for h in self._send(("scrape", job.token),
                                                ready))
            if not job.expected:
                job.event.set()
            else:
                self._scrape_active[job.token] = job

    def _expire_scrapes(self) -> None:
        """Release scrape callers whose deadline passed with
        stragglers outstanding (monitor thread only)."""
        if not self._scrape_active:
            return
        now = time.monotonic()
        for token, job in list(self._scrape_active.items()):
            if now >= job.deadline:
                self._scrape_active.pop(token, None)
                job.event.set()

    @property
    def metrics_port(self) -> int | None:
        """Bound port of the fleet ``/metrics`` endpoint (``None``
        when not serving one)."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.server_address[1]

    def _start_metrics_http(self) -> None:
        from http.server import (BaseHTTPRequestHandler,
                                 ThreadingHTTPServer)

        fleet = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib name)
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_error(404, "only /metrics is served")
                    return
                try:
                    body = fleet.scrape().encode("utf-8")
                except Exception as exc:
                    self.send_error(500, f"scrape failed: {exc}")
                    return
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes are periodic; stderr noise helps nobody

        server = ThreadingHTTPServer(
            (self._host, self._requested_metrics_port), Handler)
        self._metrics_http = server
        self._metrics_thread = threading.Thread(
            target=server.serve_forever, daemon=True,
            name="repro-fleet-metrics")
        self._metrics_thread.start()

    # -- introspection --------------------------------------------------
    def describe(self) -> dict:
        """Operational snapshot for the CLI banner and the tests."""
        return {
            "workers": self.workers,
            "port": self._port,
            "scheme": self._catalog.default.scheme,
            "generation": self.generation,
            "segment": self.segment,
            "restarts": self.restarts,
            "swaps": self.swaps,
            "pids": self.pids(),
            "protocol_version": protocol.PROTOCOL_VERSION,
            "tenants": [
                {"name": entry.name, "index_id": entry.index_id,
                 "scheme": entry.scheme,
                 "generation": entry.generation,
                 "segment": self._row(entry).segment}
                for entry in self._catalog.entries()
                if entry.index_id != DEFAULT_INDEX_ID],
        }
