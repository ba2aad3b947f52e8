"""Runtime floor: the gateway's framing over asyncio, with no index.

    python3 floor_server.py

Speaks newline-JSON (``query`` answers ``false``, ``batch`` a list of
``false``) and, after the ``REPRO-BINARY/1`` preamble, the binary
frames (``BATCH`` answers an all-zero bitmap of the right length, CRC
and all).  Driving it with the same phases as the real server bounds
what the interpreter, asyncio and the sockets cost on their own; the
repo's own cost is the difference.  Prints ``floor on HOST:PORT`` and
serves until interrupted.
"""

from __future__ import annotations

import asyncio
import json
import struct
import sys
import zlib

MAGIC_LINE = b"REPRO-BINARY/1\n"
HEADER = struct.Struct("<BBHIII")
FRAME_MAGIC = 0xB7
OP_BATCH, OP_PING = 0x01, 0x02
OP_HELLO, OP_ANSWERS, OP_PONG = 0x7E, 0x81, 0x82


def frame(opcode: int, request_id: int, payload: bytes) -> bytes:
    return HEADER.pack(FRAME_MAGIC, opcode, 0, request_id, len(payload),
                       zlib.crc32(payload)) + payload


async def serve_binary(reader, writer) -> None:
    writer.write(frame(OP_HELLO, 0, struct.pack("<III", 1, 4096, 1 << 20)))
    while True:
        try:
            head = await reader.readexactly(HEADER.size)
        except asyncio.IncompleteReadError:
            return
        _, opcode, _, request_id, length, crc = HEADER.unpack(head)
        payload = await reader.readexactly(length)
        if zlib.crc32(payload) != crc:
            return
        if opcode == OP_BATCH:
            count = length // 8
            reply = struct.pack("<I", count) + bytes((count + 7) // 8)
            writer.write(frame(OP_ANSWERS, request_id, reply))
        else:
            writer.write(frame(OP_PONG, request_id, b""))
        await writer.drain()


async def handle(reader, writer) -> None:
    first = True
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            if first and line == MAGIC_LINE:
                await serve_binary(reader, writer)
                return
            first = False
            doc = json.loads(line)
            verb = doc.get("verb")
            if verb == "query":
                result = False
            elif verb == "batch":
                result = [False] * len(doc.get("pairs", ()))
            else:
                result = "pong"
            writer.write(json.dumps({"id": doc.get("id"), "ok": True,
                                     "result": result},
                                    separators=(",", ":")).encode()
                         + b"\n")
            await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        return
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0,
                                        limit=1 << 22)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"floor on {host}:{port}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        sys.exit(0)
