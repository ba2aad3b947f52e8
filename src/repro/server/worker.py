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
* delegates ``reload`` and the mutating ``catalog`` ops to the parent
  over its control pipe: the parent runs the shared catalog mutation
  path once (:class:`~repro.server.tenancy.CatalogMutator`) and sends
  every worker the changed entry's row, so the whole fleet moves
  together.

Control-plane protocol (tuples over one duplex pipe per worker).  A
forwarded mutation is one request and one reply; every entry update —
the spawn manifest, a create, a quota change, a new generation — is one
:class:`~repro.server.tenancy.EntryRow`:

==========================================  =========================
worker → parent                             meaning
==========================================  =========================
``("ready", wid, port)``                    listening, fleet may count
                                            this worker as up
``("mutate", wid, token, verb, payload)``   a client sent this worker
                                            ``reload`` or a mutating
                                            ``catalog`` op; the parent
                                            must answer ``result``
``("swapped", wid, segment, error)``        answers an ``entry`` row
                                            with a new segment:
                                            ``None`` once it serves,
                                            else why the attach failed
                                            (the worker keeps its last
                                            good index and is killed
                                            and respawned)
``("pong", wid, seq)``                      liveness-probe answer
``("scrape_result", wid, token, text)``     this worker's Prometheus
                                            exposition (answers a
                                            ``scrape``; merged into the
                                            parent's fleet-wide
                                            ``/metrics``)
``("attach_failed", wid, error)`` /
``("start_failed", wid, error)``            startup failed; the worker
                                            exits non-zero and the
                                            fleet supervisor respawns
==========================================  =========================

==========================================  =========================
parent → worker                             meaning
==========================================  =========================
``("result", token, ok, doc)``              outcome of a forwarded
                                            mutation: the result dict,
                                            or ``code``/``message``/
                                            ``degrades`` (a failed
                                            install of entry 0)
``("entry", row)``                          register ``row``; attach
                                            its segment when it is new
                                            and answer ``swapped``
``("drop", name)``                          drop an entry and drain
                                            its lanes (journaled by the
                                            parent)
``("scrape", token)``                       answer with this worker's
                                            metrics exposition as
                                            ``scrape_result``
``("ping", seq)``                           liveness probe — a worker
                                            that stays silent past the
                                            probe timeout is killed
                                            and respawned
``("stop",)``                               graceful shutdown
==========================================  =========================

Ordering matters: the parent sends each worker its ``entry`` row
*before* the requester's ``result``, and a pipe is FIFO, so by the time
a worker answers its client the change is already applied locally —
no client can observe a success reply and then an old-generation
answer on the same connection.

Every query flush inside a worker snapshots one service generation
(see ``ReachServer``), so no micro-batch ever mixes generations even
mid-swap.
"""

from __future__ import annotations

import asyncio
import itertools
import sys

from repro.core.service import QueryService
from repro.exceptions import ReproError
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.server.server import ReachServer, ServerConfig
from repro.server.tenancy import EntryRow

__all__ = ["worker_main"]

#: Seconds a forwarded mutation may wait for the parent's verdict.
MUTATION_TIMEOUT = 120.0

#: What attaching a published segment can raise (a missing or corrupt
#: segment, an entry id a racing respawn already took).
_ATTACH_ERRORS = (OSError, ReproError)


def worker_main(worker_id: int, host: str, port: int, options: dict,
                conn) -> None:
    """Child-process entry point (must stay importable for ``spawn``).

    ``options`` carries picklable :class:`ServerConfig` keyword
    arguments plus ``catalog``, the parent's manifest of every catalog
    entry (entry 0 first) as :class:`EntryRow` rows naming their
    current segments, and ``degraded``, the parent's boot-time degraded
    reasons; ``conn`` is this worker's end of the control pipe.
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
    manifest = options.pop("catalog")
    degraded = options.pop("degraded")

    pending: dict[int, asyncio.Future] = {}
    tokens = itertools.count()
    stop_event = asyncio.Event()

    async def delegate(verb: str, payload: dict) -> dict:
        token = next(tokens)
        future: asyncio.Future = loop.create_future()
        pending[token] = future
        _send(conn, ("mutate", worker_id, token, verb, dict(payload)))
        try:
            return await asyncio.wait_for(future, MUTATION_TIMEOUT)
        except (asyncio.TimeoutError, TimeoutError):
            raise ProtocolError(
                protocol.ERR_RELOAD_FAILED,
                f"fleet {verb} timed out after {MUTATION_TIMEOUT}s")
        finally:
            pending.pop(token, None)

    config = ServerConfig(host=host, port=port, reuse_port=True,
                          worker_label=str(worker_id),
                          mutation_delegate=delegate, **options)
    # Entry 0 starts empty and attaches from the manifest like every
    # other entry; the parent's boot-time degraded reasons come along.
    server = ReachServer(None, config=config)
    for reason in degraded:
        server.note_degraded(reason)
    #: Entry name -> the segment this worker serves it from.
    attached: dict[str, str] = {}

    async def apply_row(row: EntryRow, install=server.install) -> bool:
        """Register one entry row and, when its segment is new, attach
        and install it; returns whether it attached."""
        service = None
        if row.segment is not None and attached.get(row.name) != row.segment:
            service = await loop.run_in_executor(
                None, QueryService.from_shared_memory, row.segment)
        entry = server.catalog.register(row)
        if service is None:
            return False
        install(entry, service, scheme=row.scheme,
                label_bytes=row.label_bytes, generation=row.generation)
        attached[row.name] = row.segment
        return True

    try:
        for row in manifest:
            # Boot attaches are not hot swaps: no swap is counted.
            await apply_row(row, server.catalog.install)
    except _ATTACH_ERRORS as exc:
        _send(conn, ("attach_failed", worker_id,
                     f"{type(exc).__name__}: {exc}"))
        return 1

    async def on_row(row: EntryRow) -> None:
        error = None
        try:
            if not await apply_row(row):
                return
        except _ATTACH_ERRORS as exc:
            # Keep answering from the last good generation; the parent
            # kills this worker, and the respawn manifest carries the
            # full current catalog.
            error = f"{type(exc).__name__}: {exc}"
        _send(conn, ("swapped", worker_id, row.segment, error))

    async def on_drop(name: str) -> None:
        attached.pop(name, None)
        try:
            await server.drop_tenant(name)
        except ProtocolError:
            pass  # already gone (a respawn raced the broadcast)

    def on_result(token: int, ok: bool, doc: dict) -> None:
        future = pending.get(token)
        if future is None or future.done():
            return
        if ok:
            future.set_result(doc)
            return
        if doc.get("degrades"):
            # The single-server rule: a failed install of entry 0
            # leaves this worker degraded on its last good index until
            # the next good swap of entry 0 clears it.
            server.note_degraded(doc["message"])
        future.set_exception(ProtocolError(doc["code"], doc["message"]))

    def handle_control() -> None:
        try:
            while conn.poll():
                message = conn.recv()
                kind = message[0]
                if kind == "entry":
                    loop.create_task(on_row(message[1]))
                elif kind == "drop":
                    loop.create_task(on_drop(message[1]))
                elif kind == "result":
                    on_result(*message[1:])
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
