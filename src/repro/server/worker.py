"""One fleet worker process: attach shared labels, serve, obey swaps.

:func:`worker_main` is the child-process entry point the
:class:`~repro.server.router.WorkerFleet` spawns ``N`` times.  Each
worker

* attaches the current generation of every catalog entry — entry 0,
  the default index, like every tenant — from the parent's
  shared-memory segments (:mod:`repro.core.shm`) instead of rebuilding
  — N workers share one build;
* runs a regular :class:`~repro.server.server.ReachServer` on the
  fleet's shared port with ``SO_REUSEPORT``, so the kernel spreads
  incoming connections across the listening workers (accept sharding
  — no userspace router process sits on the query hot path);
* reports per-process metrics with a ``worker="<id>"`` constant label
  (``ServerConfig.worker_label``);
* delegates the ``reload`` verb to the parent over its control pipe:
  the parent rebuilds once, publishes the next generation, and
  commands every worker to swap, so the whole fleet moves together.

Control-plane protocol (tuples over one duplex pipe per worker):

========================================  ===========================
worker → parent                           meaning
========================================  ===========================
``("ready", wid, port)``                  listening, fleet may count
                                          this worker as up
``("reload", wid, token, payload)``       a client asked this worker
                                          to reload; parent must
                                          answer ``reload_result``
``("catalog", wid, token, payload)``      a client sent this worker a
                                          mutating catalog op; parent
                                          must answer
                                          ``catalog_result``
``("swap_ok", wid, segment)``             the commanded generation is
                                          installed and serving
``("swap_err", wid, segment, error)``     attach failed — the worker
                                          keeps its last good index
                                          and reports degraded
``("pong", wid, seq)``                    liveness-probe answer
``("scrape_result", wid, token, text)``   this worker's Prometheus
                                          exposition (answers a
                                          ``scrape``; merged into the
                                          parent's fleet-wide
                                          ``/metrics``)
``("attach_failed", wid, error)`` /
``("start_failed", wid, error)``          startup failed; the worker
                                          exits non-zero and the
                                          fleet supervisor respawns
========================================  ===========================

========================================  ===========================
parent → worker                           meaning
========================================  ===========================
``("swap", segment, scheme, index_id)``   attach ``segment`` and
                                          atomically install it into
                                          catalog entry ``index_id``
                                          (0 = the default index)
``("reload_result", token, ok, doc)``     outcome of a forwarded
                                          reload (``doc`` is the
                                          summary dict or an error
                                          string)
``("catalog_result", token, ok, doc)``    outcome of a forwarded
                                          catalog op (``doc`` is the
                                          result dict, or a
                                          ``code``/``message`` dict)
``("catalog_create", spec)``              register a new empty tenant
                                          entry locally
``("catalog_drop", name)``                drop a tenant entry and
                                          drain its lanes
``("catalog_quota", name, quota)``        replace a tenant entry's
                                          admission quota locally
                                          (already journaled by the
                                          parent)
``("scrape", token)``                     answer with this worker's
                                          metrics exposition as
                                          ``scrape_result``
``("ping", seq)``                         liveness probe — a worker
                                          that stays silent past the
                                          probe timeout is killed
                                          and respawned
``("stop",)``                             graceful shutdown
========================================  ===========================

Ordering matters: on a fleet reload the parent sends each worker its
``swap`` *before* the requester's ``reload_result``, and a pipe is
FIFO, so by the time a worker answers its client the new generation is
already installed locally — no client can observe a success reply and
then an old-generation answer on the same connection.

Every query flush inside a worker snapshots one service generation
(see ``ReachServer``), so no micro-batch ever mixes generations even
mid-swap.
"""

from __future__ import annotations

import asyncio
import itertools
import sys

from repro.core.service import QueryService
from repro.exceptions import CorruptIndexError, ReproError
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.server.server import ReachServer, ServerConfig
from repro.server.tenancy import CatalogEntry, TenantQuota

__all__ = ["worker_main"]

#: Seconds a forwarded reload may wait for the parent's verdict.
RELOAD_TIMEOUT = 120.0


def worker_main(worker_id: int, host: str, port: int, options: dict,
                conn) -> None:
    """Child-process entry point (must stay importable for ``spawn``).

    ``options`` carries picklable :class:`ServerConfig` keyword
    arguments plus ``catalog``, the parent's manifest of every catalog
    entry (entry 0 first) with its current segment; ``conn`` is this
    worker's end of the control pipe.
    """
    try:
        code = asyncio.run(_worker_async(
            worker_id, host, port, options, conn))
    except KeyboardInterrupt:  # pragma: no cover - ^C races shutdown
        code = 0
    sys.exit(code)


async def _worker_async(worker_id: int, host: str, port: int,
                        options: dict, conn) -> int:
    loop = asyncio.get_running_loop()
    options = dict(options)
    reload_timeout = options.pop("reload_timeout", RELOAD_TIMEOUT)
    manifest = options.pop("catalog")

    pending: dict[int, asyncio.Future] = {}
    tokens = itertools.count()
    stop_event = asyncio.Event()

    async def delegate_reload(payload: dict) -> dict:
        token = next(tokens)
        future: asyncio.Future = loop.create_future()
        pending[token] = future
        _send(conn, ("reload", worker_id, token, dict(payload)))
        try:
            return await asyncio.wait_for(future, reload_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            server.note_degraded(
                f"fleet reload timed out after {reload_timeout}s")
            raise ProtocolError(
                protocol.ERR_RELOAD_FAILED,
                f"fleet reload timed out after {reload_timeout}s")
        except ProtocolError as exc:
            # Match the single-server contract: a failed reload leaves
            # this worker degraded on its last good index until the
            # next successful fleet swap clears it.
            server.note_degraded(exc.message)
            raise
        finally:
            pending.pop(token, None)

    async def delegate_catalog(payload: dict) -> dict:
        # The mutating-catalog twin of delegate_reload.  No degraded
        # marking on failure: a tenant op that fails leaves the
        # default index (and every other tenant) fully healthy.
        token = next(tokens)
        future: asyncio.Future = loop.create_future()
        pending[token] = future
        _send(conn, ("catalog", worker_id, token, dict(payload)))
        try:
            return await asyncio.wait_for(future, reload_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            raise ProtocolError(
                protocol.ERR_RELOAD_FAILED,
                f"fleet catalog op timed out after {reload_timeout}s")
        finally:
            pending.pop(token, None)

    config = ServerConfig(host=host, port=port, reuse_port=True,
                          worker_label=str(worker_id),
                          reload_handler=delegate_reload,
                          catalog_handler=delegate_catalog,
                          **options)
    # Entry 0 starts empty and attaches from the manifest like every
    # other entry.
    server = ReachServer(None, config=config)

    def register(spec: dict) -> CatalogEntry:
        """The local entry of one manifest row, registered on first
        sight (entry 0 always exists) and given the parent's quota."""
        quota = TenantQuota(**(spec.get("quota") or {}))
        if spec["name"] not in server.catalog.names():
            return server.catalog.create(
                spec["name"], scheme=spec["scheme"], quota=quota,
                index_id=spec["index_id"])
        entry = server.catalog.lookup(spec["name"])
        server.catalog.update_quota(entry, quota)
        return entry

    def attach(spec: dict) -> None:
        """Register one manifest entry and attach its published
        segment; an unpublished entry stays registered but empty
        (queries answer ``unknown_index``)."""
        entry = register(spec)
        if spec["segment"] is not None:
            service = QueryService.from_shared_memory(spec["segment"])
            label = server.catalog.check_budget(entry, service.index)
            server.catalog.install(entry, service, scheme=spec["scheme"],
                                   label_bytes=label)
        # The parent's (possibly journal-restored) generation count
        # replaces this process's install tally, so every worker reports
        # the same fleet-wide number; swaps then bump it in lockstep.
        entry.generation = spec["generation"]

    try:
        for spec in manifest:
            attach(spec)
    except (FileNotFoundError, CorruptIndexError, OSError,
            ReproError) as exc:
        _send(conn, ("attach_failed", worker_id,
                     f"{type(exc).__name__}: {exc}"))
        return 1

    async def do_swap(new_segment: str, new_scheme: str,
                      index_id: int) -> None:
        try:
            entry = server.catalog.lookup_id(index_id)
            new_service = await loop.run_in_executor(
                None, QueryService.from_shared_memory, new_segment)
        except (ProtocolError, FileNotFoundError, CorruptIndexError,
                OSError) as exc:
            # Keep answering from the last good generation.  swap_err
            # makes the parent kill this worker, and the respawn
            # manifest carries the full current catalog (this also
            # covers an entry unknown locally because a create raced
            # this worker's respawn).
            _send(conn, ("swap_err", worker_id, new_segment,
                         f"{type(exc).__name__}: {exc}"))
            return
        server.install(entry, new_service, scheme=new_scheme)
        _send(conn, ("swap_ok", worker_id, new_segment))

    async def do_drop(name: str) -> None:
        try:
            await server.drop_tenant(name)
        except ProtocolError:
            pass  # already gone (a respawn raced the broadcast)

    def handle_control() -> None:
        try:
            while conn.poll():
                message = conn.recv()
                kind = message[0]
                if kind == "swap":
                    _, new_segment, new_scheme, index_id = message
                    loop.create_task(do_swap(new_segment, new_scheme,
                                             index_id))
                elif kind == "reload_result":
                    _, token, ok, doc = message
                    future = pending.get(token)
                    if future is None or future.done():
                        continue
                    if ok:
                        future.set_result(doc)
                    else:
                        future.set_exception(ProtocolError(
                            protocol.ERR_RELOAD_FAILED, str(doc)))
                elif kind == "catalog_result":
                    _, token, ok, doc = message
                    future = pending.get(token)
                    if future is None or future.done():
                        continue
                    if ok:
                        future.set_result(doc)
                    else:
                        future.set_exception(ProtocolError(
                            doc.get("code",
                                    protocol.ERR_RELOAD_FAILED),
                            doc.get("message", "catalog op failed")))
                elif kind == "catalog_create":
                    # Possibly already registered (spawn manifest).
                    register(message[1])
                elif kind == "catalog_drop":
                    loop.create_task(do_drop(message[1]))
                elif kind == "catalog_quota":
                    _, name, quota_doc = message
                    try:
                        server.catalog.update_quota(
                            server.catalog.lookup(name),
                            TenantQuota(**(quota_doc or {})))
                    except ProtocolError:
                        pass  # dropped locally (a respawn raced this)
                elif kind == "scrape":
                    # Fleet-wide /metrics: the parent merges every
                    # worker's exposition into one scrape document.
                    _send(conn, ("scrape_result", worker_id,
                                 message[1],
                                 server.metrics_exposition()))
                elif kind == "ping":
                    # Liveness probe: answered inline on the event
                    # loop, so a wedged/SIGSTOPped worker goes silent
                    # and the fleet supervisor replaces it.
                    _send(conn, ("pong", worker_id, message[1]))
                elif kind == "stop":
                    stop_event.set()
        except (EOFError, OSError):
            # The parent is gone: there is nothing to serve for.
            stop_event.set()

    try:
        await server.start()
    except Exception as exc:  # bind/executor failures -> respawn
        _send(conn, ("start_failed", worker_id,
                     f"{type(exc).__name__}: {exc}"))
        return 1

    loop.add_reader(conn.fileno(), handle_control)
    _send(conn, ("ready", worker_id, server.port))
    try:
        await stop_event.wait()
    finally:
        loop.remove_reader(conn.fileno())
        await server.stop()
        _send(conn, ("bye", worker_id))
    return 0


def _send(conn, message: tuple) -> None:
    """Best-effort control-plane send (a dead parent is not an
    error a worker can do anything about)."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass
