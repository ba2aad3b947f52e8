"""Traced server launcher: the program with spans around each layer.

    python3 launcher.py SPANS_OUT serve GRAPH --port 0 [...]

Wraps the public entry points of every layer the benchmark budgets,
then runs the program's own command line with the remaining
arguments.  Spans stay in memory and are written to ``SPANS_OUT`` as
JSON when the server shuts down.

Each span records its name, start, duration and *self* time — the
duration minus what nested spans on the same thread covered.  They
are aggregated per name into 100 ms buckets of start time (on
``CLOCK_MONOTONIC``, which the driver shares), so the driver can
attribute them to its phases without keeping every span; the first
few thousand spans are also kept raw with their parent span.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from time import perf_counter_ns

BUCKET_NS = 100_000_000
RAW_LIMIT = 4000


class Spans:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.buckets: dict = {}
        self.raw: list = []
        self.labels: dict = {}
        self._ids = itertools.count(1)

    def add(self, name: str, start: int, dur: int, self_ns: int,
            items: int, span_id: int = 0, parent: int = 0) -> None:
        key = (name, start // BUCKET_NS)
        with self._lock:
            agg = self.buckets.get(key)
            if agg is None:
                agg = self.buckets[key] = [0, 0, 0, 0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_ns
            agg[3] += items
            if len(self.raw) < RAW_LIMIT:
                self.raw.append((span_id, parent, name, start, start + dur))

    def wrap(self, name: str, fn, items=None):
        """``fn`` with a span; ``items(args, result)`` counts its work."""
        local = self._local
        ids = self._ids

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1][1] if stack else 0
            frame = [0, next(ids)]
            stack.append(frame)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                count = items(args, result) if items else 1
                self.add(name, start, dur, dur - frame[0], count,
                         frame[1], parent)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        doc = {
            "bucket_ns": BUCKET_NS,
            "buckets": [[name, bucket, *agg]
                        for (name, bucket), agg in self.buckets.items()],
            "raw": self.raw,
            "labels": self.labels,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(old, new) -> None:
    """Point every loaded module's name for ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        names = getattr(module, "__dict__", None)
        if not names:
            continue
        for key, value in list(names.items()):
            if value is old:
                setattr(module, key, new)


def _frame_pairs(args, result) -> int:
    return sum(len(frame) for frame in args[1]) // 8


def install(spans: Spans) -> None:
    import repro.cli  # noqa: F401  (binds every name we rebind below)
    from repro.core import base, fastkernel, serialize, service
    from repro.graph import io
    from repro.server import batcher, binproto, durability, protocol
    from repro.server import server as gateway

    for module, attr, name, items in (
            (io, "read_edge_list", "graph.read", None),
            (serialize, "load_dual_index", "serialize.load", None),
            (protocol, "parse_pairs", "protocol.parse",
             lambda a, r: len(r) if r else 0)):
        old = getattr(module, attr)
        _rebind(old, spans.wrap(name, old, items))

    old_build = base.build_index
    traced_build = spans.wrap("pipeline.build", old_build)

    def build_index(*args, **kwargs):
        index = traced_build(*args, **kwargs)
        end = perf_counter_ns()
        for phase, seconds in index.stats().phase_seconds.items():
            dur = int(seconds * 1e9)
            spans.add(f"pipeline.{phase}", end - dur, dur, dur, 1)
        return index

    _rebind(old_build, build_index)

    qs = service.QueryService
    qs.__init__ = spans.wrap("service.init", qs.__init__)
    qs.query_batch = spans.wrap("service.call", qs.query_batch,
                                lambda a, r: len(a[1]))
    qs.query_frames = spans.wrap("service.call", qs.query_frames,
                                 _frame_pairs)
    fk = fastkernel.FastKernel
    traced_frames = spans.wrap("fastkernel.run_frames", fk.run_frames,
                               _frame_pairs)

    def run_frames(self, frames):
        spans.labels["fastkernel.mode"] = self.mode
        return traced_frames(self, frames)

    fk.run_frames = run_frames

    protocol.JsonCodec.encode_ok = staticmethod(
        spans.wrap("protocol.encode", protocol.JsonCodec.encode_ok))
    binproto.BinaryCodec.encode_ok = staticmethod(
        spans.wrap("binproto.encode", binproto.BinaryCodec.encode_ok))

    ds = durability.DurableState
    ds.save_index = spans.wrap("serialize.save", ds.save_index)
    for verb in ("create", "install", "quota", "drop"):
        attr = f"record_{verb}"
        setattr(ds, attr, spans.wrap("durability.journal",
                                     getattr(ds, attr)))

    # Queue wait: from try_submit to the start of the flush that
    # carries the request (its service call is issued in that same
    # event-loop step).  Keyed by the identity of the request payload.
    submitted: dict[int, int] = {}
    mb = batcher.MicroBatcher
    old_try = mb.try_submit

    def try_submit(self, pairs, ticket=None):
        submitted.setdefault(id(pairs), perf_counter_ns())
        try:
            future = old_try(self, pairs, ticket)
        except BaseException:
            submitted.pop(id(pairs), None)
            raise
        if future is not None and future.done():
            submitted.pop(id(pairs), None)
        return future

    mb.try_submit = try_submit

    def traced_execute(old):
        async def _execute(self, entries, num_pairs):
            now = perf_counter_ns()
            for entry in entries:
                t = submitted.pop(id(entry[0]), None)
                if t is not None:
                    spans.add("batcher.queue_wait", t, now - t, now - t, 1)
            return await old(self, entries, num_pairs)
        return _execute

    lanes = {mb} | {cls for cls in vars(gateway).values()
                    if isinstance(cls, type) and issubclass(cls, mb)}
    for cls in lanes:
        if "_execute" in vars(cls):
            cls._execute = traced_execute(vars(cls)["_execute"])


def main(argv: list) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans = Spans()
    install(spans)
    from repro.cli import main as cli_main
    try:
        return cli_main(argv[1:])
    finally:
        spans.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
