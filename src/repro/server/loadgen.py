"""Open-loop multi-connection load generator for the gateway.

Drives a :class:`~repro.server.server.ReachServer` with ``connections``
concurrent TCP connections, each keeping up to ``pipeline`` requests in
flight (optionally paced to a target aggregate ``rate``), and records
completions, per-code error counts, and client-side latency
percentiles.  Because senders do not wait for replies before issuing
the next request (up to the window), queries from many connections land
inside the server's micro-batch window — exactly the traffic shape the
cross-connection batcher exists for.

The generator is also the measurement half of the chaos harness
(:mod:`repro.testing.chaos`): a dropped connection is tallied as
``reset`` (plus one per request that was in flight), a failed connect
as ``connect_failed``, an undecodable reply as ``garbled`` — and the
sender *reconnects* and keeps driving until the deadline, so a fault
mid-run measures recovery instead of aborting the experiment.  Passing
``expected`` (the direct :class:`~repro.core.service.QueryService`
answers for the pair pool) makes every reply differentially checked:
``wrong_answers`` must stay zero under any fault schedule, because the
resilience layer is allowed to *fail* requests, never to answer them
incorrectly.

The generator speaks both wire protocols: ``protocol="json"`` (the
default) drives newline-JSON ``query``/``batch`` verbs, while
``protocol="binary"`` negotiates :mod:`repro.server.binproto` framing
(magic preamble, then struct-packed pair payloads in and answer
bitmaps out) with the request frames precomputed before the clock
starts.  A JSON-only server answers the preamble with a JSON error
line; the generator tallies that as ``binary_unsupported`` and stops
that connection instead of reconnect-spinning.  Frame-level corruption
(bad magic, CRC mismatch) counts as ``garbled`` and forces a
reconnect, matching the server's resync-by-reconnect contract.

Multi-tenant servers are first-class targets: ``index`` aims every
request at one named catalog entry (the JSON ``index`` field, or the
u16 catalog id in each binary frame header), and :func:`run_loadgen_mix`
drives several tenants *concurrently* from one event loop — each with
its own pair pool, expected answers, and per-tenant
:class:`LoadgenResult` — which is how the isolation soak loads tenant A
while differentially verifying tenant B.

The generator is pure asyncio and runs in one thread;
:func:`run_loadgen` is the synchronous entry point used by
``repro-reach loadgen`` and the ``repro-reach smoke`` scenarios.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.server import binproto
from repro.server.protocol import encode_message

__all__ = ["LoadgenResult", "run_loadgen", "run_loadgen_mix"]


@dataclass
class LoadgenResult:
    """Aggregate outcome of one load-generation run."""

    connections: int
    pipeline: int
    batch_size: int
    duration_seconds: float
    #: Every Nth request's latency was recorded (1 = all of them).
    latency_sample: int = 1
    #: Catalog entry the run targeted (``None`` = the default index).
    index: "str | int | None" = None
    sent: int = 0
    completed: int = 0
    ok: int = 0
    #: queries answered (requests × pairs per request)
    queries: int = 0
    #: error-code -> count over all connections; transport-level codes
    #: (``reset``, ``connect_failed``, ``garbled``) share the table
    #: with server reply codes (``overloaded``, ``timeout``, ...).
    errors: dict[str, int] = field(default_factory=dict)
    #: times a connection was re-established after a drop
    reconnects: int = 0
    #: replies that contradicted the ``expected`` answers
    wrong_answers: int = 0
    #: up to 10 ``(u, v, got, want)`` samples of wrong answers
    mismatch_samples: list = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def error_total(self) -> int:
        return sum(self.errors.values())

    @property
    def queries_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.queries / self.duration_seconds

    def count_error(self, code: str, n: int = 1) -> None:
        self.errors[code] = self.errors.get(code, 0) + n

    def percentile(self, q: float) -> float:
        """Client-observed latency percentile in milliseconds."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def error_breakdown(self) -> dict[str, int]:
        """Sorted error-code table plus the verification counters —
        the block the CLI prints and the chaos smoke gates on."""
        table = dict(sorted(self.errors.items()))
        table["total_errors"] = self.error_total
        table["reconnects"] = self.reconnects
        table["wrong_answers"] = self.wrong_answers
        return table

    def as_dict(self) -> dict[str, Any]:
        """Flat report row (for ``format_kv_table`` / JSON)."""
        row: dict[str, Any] = {
            "index": "default" if self.index is None else self.index,
            "connections": self.connections,
            "pipeline": self.pipeline,
            "batch_size": self.batch_size,
            "duration_seconds": self.duration_seconds,
            "sent": self.sent,
            "completed": self.completed,
            "ok": self.ok,
            "errors": self.error_total,
            "error_codes": dict(sorted(self.errors.items())),
            "reconnects": self.reconnects,
            "wrong_answers": self.wrong_answers,
            "queries": self.queries,
            "queries_per_second": self.queries_per_second,
            "latency_sample": self.latency_sample,
            "latency_p50_ms": self.percentile(0.50),
            "latency_p95_ms": self.percentile(0.95),
            "latency_p99_ms": self.percentile(0.99),
        }
        if self.latency_sample > 1:
            # 1-in-N sampling thins the tail: with few samples past the
            # 99th percentile the p99 estimate is noisy and can only
            # miss extremes, never invent them.
            row["latency_note"] = (
                f"latencies sampled 1-in-{self.latency_sample}; tail "
                f"percentiles (p99) are estimates from "
                f"{len(self.latencies_ms)} samples")
        return row


async def _drive_session(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         pairs: Sequence[tuple],
                         expected: "Sequence[bool] | None",
                         frames: "list[bytes] | None",
                         position: int, next_id: int, deadline: float,
                         pipeline: int, batch_size: int,
                         send_interval: float, latency_sample: int,
                         result: LoadgenResult,
                         index: "str | None" = None,
                         trace: bool = False) -> tuple[int, int, int]:
    """Drive one connection until it drops or the deadline passes.

    Returns ``(position, next_id, lost)`` so a reconnecting caller can
    resume the pair cursor and id sequence; ``lost`` is the number of
    requests that were in flight when the connection died.
    """
    n = len(pairs)
    inflight = 0
    closed = False
    wake = asyncio.Event()
    sampled: dict[int, float] = {}  # sampled id -> sent_at
    pending: dict[int, int] = {}    # id -> pool position (verify mode)

    def check_answers(start: int, answers: Any) -> None:
        if not isinstance(answers, list):
            answers = [answers]
        for i, got in enumerate(answers):
            want = expected[(start + i) % n]
            if bool(got) != bool(want):
                result.wrong_answers += 1
                if len(result.mismatch_samples) < 10:
                    u, v = pairs[(start + i) % n]
                    result.mismatch_samples.append(
                        (u, v, bool(got), bool(want)))

    async def read_replies() -> None:
        nonlocal closed, inflight
        buffer = b""
        while True:
            try:
                chunk = await reader.read(1 << 16)
            except (ConnectionError, OSError):
                chunk = b""
            if not chunk:
                closed = True
                wake.set()
                return
            lines = (buffer + chunk).split(b"\n")
            buffer = lines.pop()
            now = time.perf_counter()
            for line in lines:
                if not line:
                    continue
                rid: Any = None
                if expected is None and line.startswith(b'{"id":') \
                        and b'"ok":true' in line:
                    # Fast path: counting only, no verification.
                    result.ok += 1
                    result.queries += batch_size
                    if sampled:
                        try:
                            rid = int(line[6:line.index(b",", 6)])
                        except ValueError:
                            rid = None
                else:
                    try:
                        reply = json.loads(line)
                    except ValueError:
                        result.count_error("garbled")
                        result.completed += 1
                        inflight -= 1
                        wake.set()
                        continue
                    rid = reply.get("id")
                    if reply.get("ok"):
                        result.ok += 1
                        result.queries += batch_size
                        if expected is not None and rid in pending:
                            check_answers(pending[rid],
                                          reply.get("result"))
                    else:
                        code = reply.get("error", "unknown")
                        result.count_error(code)
                pending.pop(rid, None)
                result.completed += 1
                inflight -= 1
                sent_at = sampled.pop(rid, None)
                if sent_at is not None:
                    result.latencies_ms.append((now - sent_at) * 1000.0)
            wake.set()

    reader_task = asyncio.ensure_future(read_replies())
    # One watchdog for the whole session (not a timeout per send): at
    # the deadline it wakes a sender blocked on a stalled/dead server.
    loop = asyncio.get_running_loop()
    watchdog = loop.call_at(
        loop.time() + max(0.0, deadline - time.perf_counter()),
        wake.set)
    try:
        while not closed and time.perf_counter() < deadline:
            if inflight >= pipeline:
                wake.clear()
                if not closed and time.perf_counter() < deadline:
                    await wake.wait()
                continue
            burst = bytearray()
            # Pacing caps a burst at one request; open loop fills the
            # free window.
            limit = 1 if send_interval > 0 else pipeline - inflight
            for _ in range(limit):
                next_id += 1
                if next_id % latency_sample == 0:
                    sampled[next_id] = time.perf_counter()
                if expected is not None:
                    pending[next_id] = position
                if frames is not None:
                    burst += b'{"id":%d,' % next_id
                    burst += frames[position % n]
                    position += 1
                else:
                    chunk = [list(pairs[(position + i) % n])
                             for i in range(batch_size)]
                    message = {"id": next_id, "verb": "batch",
                               "pairs": chunk}
                    if index is not None:
                        message["index"] = index
                    if trace:
                        message["trace"] = "lg-%d" % next_id
                    burst += encode_message(message)
                    position += batch_size
            inflight += limit
            result.sent += limit
            try:
                writer.write(bytes(burst))
                await writer.drain()
            except (ConnectionError, OSError):
                closed = True
                break
            if send_interval > 0:
                await asyncio.sleep(send_interval)
        # Drain: wait (bounded) for the outstanding window.
        drain_deadline = time.perf_counter() + 5.0
        while inflight > 0 and not closed \
                and time.perf_counter() < drain_deadline:
            await asyncio.sleep(0.005)
    finally:
        watchdog.cancel()
        reader_task.cancel()
        try:
            await reader_task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return position, next_id, max(0, inflight)


class _BinaryUnsupported(Exception):
    """The server answered the magic preamble with a JSON line."""


def _bin_prefix(index_id: int) -> bytes:
    """Invariant head of every ``BATCH`` request frame: magic, opcode,
    and the u16 catalog index id (0 = the default index).  The sender
    splices ``request_id`` and the precomputed ``(payload_len, crc,
    payload)`` tail behind it."""
    return struct.pack("<BBH", binproto.FRAME_MAGIC,
                       binproto.OP_BATCH, index_id)


async def _drive_session_binary(reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter,
                                pairs: Sequence[tuple],
                                expected: "Sequence[bool] | None",
                                tails: "list[bytes]",
                                position: int, next_id: int,
                                deadline: float, pipeline: int,
                                batch_size: int, send_interval: float,
                                latency_sample: int,
                                result: LoadgenResult,
                                prefix: bytes = _bin_prefix(0),
                                ) -> tuple[int, int, int]:
    """Binary-protocol twin of :func:`_drive_session`.

    Sends :data:`~repro.server.binproto.MAGIC_LINE` first, then frames
    assembled from the precomputed per-position ``tails``.  Raises
    :class:`_BinaryUnsupported` when the server replies to the preamble
    with a JSON line (a server without binary support parses the magic
    as a malformed request).
    """
    n = len(pairs)
    inflight = 0
    closed = False
    unsupported = False
    wake = asyncio.Event()
    sampled: dict[int, float] = {}  # sampled rid -> sent_at
    pending: dict[int, int] = {}    # rid -> pool position (verify mode)
    header = binproto.HEADER
    hsize = binproto.HEADER_SIZE

    def check_bitmap(start: int, payload: bytes) -> None:
        if len(payload) < 4:
            result.count_error("garbled")
            return
        count = struct.unpack_from("<I", payload)[0]
        try:
            answers = binproto.unpack_bitmap(count, payload[4:])
        except Exception:
            result.count_error("garbled")
            return
        for i, got in enumerate(answers):
            want = expected[(start + i) % n]
            if bool(got) != bool(want):
                result.wrong_answers += 1
                if len(result.mismatch_samples) < 10:
                    u, v = pairs[(start + i) % n]
                    result.mismatch_samples.append(
                        (u, v, bool(got), bool(want)))

    async def read_replies() -> None:
        nonlocal closed, inflight, unsupported
        buffer = bytearray()
        while True:
            try:
                chunk = await reader.read(1 << 16)
            except (ConnectionError, OSError):
                chunk = b""
            if not chunk:
                closed = True
                wake.set()
                return
            buffer += chunk
            if buffer[:1] == b"{":
                # A JSON-only server read the magic preamble as a
                # request and answered with a JSON error line.
                unsupported = True
                closed = True
                wake.set()
                return
            now = time.perf_counter()
            while len(buffer) >= hsize:
                magic, opcode, _reserved, rid, plen, crc = \
                    header.unpack_from(buffer)
                if magic != binproto.FRAME_MAGIC:
                    # Desynchronised reply stream: there is no sentinel
                    # to scan for, so drop the connection and let the
                    # caller reconnect (mirrors the server's contract).
                    result.count_error("garbled")
                    closed = True
                    wake.set()
                    return
                if len(buffer) < hsize + plen:
                    break
                payload = bytes(buffer[hsize:hsize + plen])
                del buffer[:hsize + plen]
                if zlib.crc32(payload) != crc:
                    result.count_error("garbled")
                    closed = True
                    wake.set()
                    return
                if opcode == binproto.OP_HELLO:
                    continue  # negotiation ack, not a reply
                if opcode == binproto.OP_ANSWERS:
                    result.ok += 1
                    result.queries += batch_size
                    if expected is not None and rid in pending:
                        check_bitmap(pending[rid], payload)
                elif opcode == binproto.OP_PONG:
                    result.ok += 1
                elif opcode == binproto.OP_ERROR:
                    code = payload[0] if payload else 0
                    result.count_error(
                        binproto.ERROR_NAMES.get(code, "internal"))
                else:
                    result.count_error("garbled")
                pending.pop(rid, None)
                result.completed += 1
                inflight -= 1
                sent_at = sampled.pop(rid, None)
                if sent_at is not None:
                    result.latencies_ms.append(
                        (now - sent_at) * 1000.0)
            wake.set()

    try:
        writer.write(binproto.MAGIC_LINE)
        await writer.drain()
    except (ConnectionError, OSError):
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        return position, next_id, 0

    reader_task = asyncio.ensure_future(read_replies())
    loop = asyncio.get_running_loop()
    watchdog = loop.call_at(
        loop.time() + max(0.0, deadline - time.perf_counter()),
        wake.set)
    pack_rid = struct.Struct("<I").pack
    try:
        while not closed and time.perf_counter() < deadline:
            if inflight >= pipeline:
                wake.clear()
                if not closed and time.perf_counter() < deadline:
                    await wake.wait()
                continue
            burst = bytearray()
            limit = 1 if send_interval > 0 else pipeline - inflight
            for _ in range(limit):
                next_id += 1
                rid = next_id & 0xFFFFFFFF
                if next_id % latency_sample == 0:
                    sampled[rid] = time.perf_counter()
                if expected is not None:
                    pending[rid] = position % n
                burst += prefix
                burst += pack_rid(rid)
                burst += tails[position % n]
                position += batch_size
            inflight += limit
            result.sent += limit
            try:
                writer.write(bytes(burst))
                await writer.drain()
            except (ConnectionError, OSError):
                closed = True
                break
            if send_interval > 0:
                await asyncio.sleep(send_interval)
        drain_deadline = time.perf_counter() + 5.0
        while inflight > 0 and not closed \
                and time.perf_counter() < drain_deadline:
            await asyncio.sleep(0.005)
    finally:
        watchdog.cancel()
        reader_task.cancel()
        try:
            await reader_task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if unsupported:
        raise _BinaryUnsupported
    return position, next_id, max(0, inflight)


async def _drive_connection(host: str, port: int,
                            pairs: Sequence[tuple],
                            expected: "Sequence[bool] | None",
                            frames: "list[bytes] | None",
                            tails: "list[bytes] | None", offset: int,
                            deadline: float, pipeline: int,
                            batch_size: int, send_interval: float,
                            latency_sample: int,
                            result: LoadgenResult,
                            index: "str | None" = None,
                            prefix: bytes = _bin_prefix(0),
                            trace: bool = False) -> None:
    """One logical connection: reconnects after drops until the
    deadline, so the generator keeps measuring through faults.

    ``tails`` selects the binary session; a server that turns out to be
    JSON-only ends the connection for good (reconnecting could never
    succeed) after tallying ``binary_unsupported``.
    """
    position = offset
    next_id = offset * 1_000_000  # distinct id spaces per connection
    reconnect_delay = 0.02
    first = True
    while time.perf_counter() < deadline:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            result.count_error("connect_failed")
            await asyncio.sleep(min(
                reconnect_delay, max(0.0,
                                     deadline - time.perf_counter())))
            reconnect_delay = min(reconnect_delay * 2, 0.5)
            continue
        if not first:
            result.reconnects += 1
        first = False
        reconnect_delay = 0.02
        if tails is not None:
            try:
                position, next_id, lost = await _drive_session_binary(
                    reader, writer, pairs, expected, tails, position,
                    next_id, deadline, pipeline, batch_size,
                    send_interval, latency_sample, result, prefix)
            except _BinaryUnsupported:
                result.count_error("binary_unsupported")
                return
        else:
            position, next_id, lost = await _drive_session(
                reader, writer, pairs, expected, frames, position,
                next_id, deadline, pipeline, batch_size, send_interval,
                latency_sample, result, index, trace)
        if time.perf_counter() >= deadline:
            break
        # The session ended early: the server dropped us.  Anything
        # still in flight is lost — tally and reconnect.
        if lost:
            result.count_error("reset", lost)
            result.completed += lost
        await asyncio.sleep(0.01)


def _binary_tails(pairs: Sequence[tuple],
                  batch_size: int) -> list[bytes]:
    """Per-start-position ``(payload_len, crc32, payload)`` frame tails.

    The pair pool is packed once into a doubled ``(u32, u32)`` byte
    string so any wrapping window of ``batch_size`` pairs is one
    contiguous slice; position ``s``'s tail carries the pairs
    ``pairs[s % n] .. pairs[(s + batch_size - 1) % n]``.
    """
    n = len(pairs)
    flat: list[int] = []
    for u, v in pairs:
        flat.append(u)
        flat.append(v)
    try:
        pool = struct.pack(f"<{2 * n}I", *flat)
    except struct.error:
        raise ValueError(
            "binary protocol needs integer node ids in [0, 2**32); "
            "the pair pool contains ids outside that range") from None
    reps = 1 + (batch_size + n - 1) // n  # windows may wrap > once
    view = memoryview(pool * reps)
    plen = 8 * batch_size
    size = struct.Struct("<II")
    return [
        size.pack(plen, zlib.crc32(view[8 * s:8 * s + plen]))
        + bytes(view[8 * s:8 * s + plen])
        for s in range(n)]


def _prepare_stream(host: str, port: int, pairs: Sequence[tuple],
                    connections: int, pipeline: int,
                    batch_size: int, rate: float | None,
                    expected: "Sequence[bool] | None",
                    latency_sample: int, protocol: str,
                    index: "str | int | None",
                    result: LoadgenResult,
                    trace: bool = False):
    """Precompute one stream's frames and return a factory that makes
    its connection coroutines for a given deadline (shared by the
    single and the mix runners).

    Precomputes the invariant part of every request ONCE, before the
    clock starts — the senders then only splice the id in front.
    Built per connection this serialization work scales with the
    connection count and eats the measurement window; callers take
    their start timestamp AFTER this returns.
    """
    # Open-loop pacing: a target aggregate request rate splits evenly
    # into per-connection send intervals; rate=None sends at will.
    send_interval = (connections / rate) if rate else 0.0
    frames: list[bytes] | None = None
    tails: list[bytes] | None = None
    prefix = _bin_prefix(0)
    json_index: str | None = None
    if protocol == "binary":
        tails = _binary_tails(pairs, batch_size)
        prefix = _bin_prefix(int(index or 0))
    else:
        json_index = index  # type: ignore[assignment]
        if batch_size == 1 and not trace:
            # Traced requests each carry a fresh client-minted id, so
            # they cannot use the precomputed-frame fast path.
            head = {"verb": "query"}
            if index is not None:
                head["index"] = index
            frames = [
                json.dumps(dict(head, u=u, v=v),
                           separators=(",", ":"))[1:].encode() + b"\n"
                for u, v in pairs]
    stride = max(1, len(pairs) // max(1, connections))

    def make_tasks(deadline: float) -> list:
        return [
            _drive_connection(host, port, pairs, expected, frames,
                              tails, i * stride, deadline, pipeline,
                              batch_size, send_interval,
                              latency_sample, result, json_index,
                              prefix, trace)
            for i in range(connections)]

    return make_tasks


async def _run(host: str, port: int, pairs: Sequence[tuple],
               connections: int, duration: float, pipeline: int,
               batch_size: int, rate: float | None,
               expected: "Sequence[bool] | None",
               latency_sample: int, protocol: str,
               index: "str | int | None",
               trace: bool = False) -> LoadgenResult:
    result = LoadgenResult(connections=connections, pipeline=pipeline,
                           batch_size=batch_size,
                           duration_seconds=duration,
                           latency_sample=latency_sample, index=index)
    make_tasks = _prepare_stream(
        host, port, pairs, connections, pipeline, batch_size, rate,
        expected, latency_sample, protocol, index, result, trace)
    started = time.perf_counter()
    await asyncio.gather(*make_tasks(started + duration))
    result.duration_seconds = time.perf_counter() - started
    return result


async def _run_mix(host: str, port: int, streams: Sequence[dict],
                   duration: float,
                   results: "list[LoadgenResult]") -> None:
    factories = [
        _prepare_stream(
            host, port, spec["pairs"], result.connections,
            result.pipeline, result.batch_size, spec.get("rate"),
            spec.get("expected"), result.latency_sample,
            spec.get("protocol", "json"), spec.get("index"), result,
            spec.get("trace", False))
        for spec, result in zip(streams, results)]
    started = time.perf_counter()
    deadline = started + duration
    tasks: list = []
    for make_tasks in factories:
        tasks.extend(make_tasks(deadline))
    await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - started
    for result in results:
        result.duration_seconds = elapsed


def _validate_stream(pairs: Sequence[tuple], connections: int,
                     pipeline: int, batch_size: int,
                     latency_sample: int, protocol: str,
                     expected: "Sequence[bool] | None",
                     index: "str | int | None",
                     trace: bool = False) -> None:
    if trace and protocol == "binary":
        raise ValueError(
            "traced loadgen speaks the json protocol (binary trace "
            "frames need per-connection negotiation; use "
            "BinaryReachClient(trace=True) for that path)")
    if not pairs:
        raise ValueError("loadgen needs a non-empty pair pool")
    if protocol not in ("json", "binary"):
        raise ValueError(
            f"protocol must be 'json' or 'binary', got {protocol!r}")
    if connections < 1 or pipeline < 1 or batch_size < 1:
        raise ValueError(
            "connections, pipeline, and batch_size must be >= 1")
    if latency_sample < 1:
        raise ValueError(
            f"latency_sample must be >= 1, got {latency_sample}")
    if expected is not None and len(expected) != len(pairs):
        raise ValueError(
            f"expected answers ({len(expected)}) must align with the "
            f"pair pool ({len(pairs)})")
    if index is not None:
        if protocol == "binary":
            if not isinstance(index, int) or not 0 <= index <= 0xFFFF:
                raise ValueError(
                    "the binary protocol addresses catalog entries by "
                    f"numeric id in [0, 65535], got {index!r} (resolve "
                    "the name via the catalog list verb first)")
        elif not isinstance(index, str):
            raise ValueError(
                "the json protocol addresses catalog entries by name, "
                f"got {index!r}")


def run_loadgen(host: str, port: int, pairs: Sequence[tuple], *,
                connections: int = 8, duration: float = 2.0,
                pipeline: int = 4, batch_size: int = 1,
                rate: float | None = None,
                expected: "Sequence[bool] | None" = None,
                latency_sample: int = 1,
                protocol: str = "json",
                index: "str | int | None" = None,
                trace: bool = False) -> LoadgenResult:
    """Drive the gateway at ``host:port`` and return the aggregate.

    Parameters
    ----------
    pairs:
        Query pool; each connection cycles through it from a distinct
        offset.
    connections:
        Concurrent TCP connections.
    duration:
        Seconds to keep sending.
    pipeline:
        Max in-flight requests per connection (the open-loop window).
    batch_size:
        Pairs per request: ``1`` sends ``query`` verbs, larger values
        send ``batch`` verbs of that many pairs.
    rate:
        Optional aggregate requests/second pacing target.
    expected:
        Optional ground-truth answers aligned with ``pairs``; when
        given, every reply is differentially verified and mismatches
        are counted in ``LoadgenResult.wrong_answers``.
    latency_sample:
        Record the client-side latency of every Nth request.  The
        default ``1`` times every request (unbiased percentiles);
        larger values trade percentile fidelity — especially at the
        tail, where 1-in-N sampling sees few of the extreme values —
        for one fewer timestamp dict write per skipped request.
    protocol:
        ``"json"`` (default) speaks newline-JSON verbs; ``"binary"``
        negotiates :mod:`repro.server.binproto` framing and sends
        struct-packed pair batches.  With ``expected``, binary answer
        bitmaps are differentially verified exactly like JSON replies.
    index:
        Target catalog entry: a tenant *name* for the JSON protocol,
        the numeric catalog *id* for the binary protocol (whose frame
        header carries a u16 id, not a name).  ``None`` drives the
        default index, exactly as before.
    trace:
        Stamp every JSON request with a client-minted trace id
        (``lg-<id>``), exercising the end-to-end trace-propagation
        path: the id is echoed in replies and lands in the server's
        slow-query log, stage exemplars, and flight recorder.
    """
    _validate_stream(pairs, connections, pipeline, batch_size,
                     latency_sample, protocol, expected, index, trace)
    return asyncio.run(_run(host, port, list(pairs), connections,
                            duration, pipeline, batch_size, rate,
                            expected, latency_sample, protocol,
                            index, trace))


def run_loadgen_mix(host: str, port: int, streams: Sequence[dict], *,
                    duration: float = 2.0) -> list[LoadgenResult]:
    """Drive several tenants concurrently from one event loop.

    Each ``streams`` entry is a dict with the same knobs as
    :func:`run_loadgen` — required ``pairs``; optional ``index``,
    ``connections`` (default 4), ``pipeline`` (default 4),
    ``batch_size`` (default 1), ``rate``, ``expected``,
    ``latency_sample`` (default 1), and ``protocol`` (default
    ``"json"``) — and gets its own :class:`LoadgenResult` (returned in
    stream order, each tagged with its ``index``).  All streams share
    one deadline, so the mix measures true concurrent cross-tenant
    traffic: this is the primitive the isolation soak uses to overload
    tenant A while differentially verifying tenant B's answers.
    """
    if not streams:
        raise ValueError("loadgen mix needs at least one stream")
    results: list[LoadgenResult] = []
    prepared: list[dict] = []
    for spec in streams:
        spec = dict(spec)
        spec["pairs"] = list(spec.get("pairs") or ())
        connections = spec.get("connections", 4)
        pipeline = spec.get("pipeline", 4)
        batch_size = spec.get("batch_size", 1)
        latency_sample = spec.get("latency_sample", 1)
        _validate_stream(spec["pairs"], connections, pipeline,
                         batch_size, latency_sample,
                         spec.get("protocol", "json"),
                         spec.get("expected"), spec.get("index"),
                         spec.get("trace", False))
        results.append(LoadgenResult(
            connections=connections, pipeline=pipeline,
            batch_size=batch_size, duration_seconds=duration,
            latency_sample=latency_sample, index=spec.get("index")))
        prepared.append(spec)
    asyncio.run(_run_mix(host, port, prepared, duration, results))
    return results
