"""Request tracing: trace IDs, per-stage spans, the slow-query log.

A *trace* follows one request through the serving pipeline.  The trace
ID is minted by :class:`~repro.server.client.ReachClient` (``trace``
field on the request line) or, for untagged clients, by the gateway at
admission — either way it appears in the access-log line, the
slow-query log, and error replies' context, so one grep connects a
client-observed latency spike to the server-side stage breakdown.

The stage vocabulary of the serving pipeline (see
``docs/OBSERVABILITY.md`` for the glossary):

``parse``
    JSON decode plus pair extraction/validation.
``admission``
    From parse completion to acceptance into the micro-batch buffer
    (includes any block-policy wait for queue room).
``queue_wait``
    Buffered in the micro-batch, waiting for the size/deadline flush
    trigger.
``kernel``
    The shared ``QueryService.query_batch`` evaluation of the flush the
    request rode in (worker-thread wall clock).
``serialize``
    From kernel completion to the reply bytes being queued on the
    connection (includes answer scatter and event-loop handoff).

Spans are *contiguous*: each stage ends where the next begins, so their
sum equals the end-to-end latency up to floating-point error — the
property the acceptance test asserts.

:class:`BatchTicket` is the tiny mutable record the gateway hands to
the :class:`~repro.server.batcher.MicroBatcher` so the batcher can
stamp the enqueue/flush/kernel-done instants without changing its
result types.  :class:`SlowQueryLog` keeps the top-K slowest requests
(a min-heap) with their span breakdowns for the ``stats`` verb and
``repro-reach top``.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
from typing import Any

__all__ = ["BatchTicket", "SlowQueryLog", "SpanRecorder", "TraceIds",
           "REQUEST_STAGES"]

#: The serving pipeline's stage names, in pipeline order.
REQUEST_STAGES = ("parse", "admission", "queue_wait", "kernel",
                  "serialize")


class TraceIds:
    """Cheap unique trace-ID mint: ``<tag>-<seq>`` with a per-process
    random tag, so IDs from different processes (client vs. gateway)
    never collide and cost one integer increment to produce."""

    __slots__ = ("_prefix", "_counter")

    def __init__(self, tag: str | None = None) -> None:
        if tag is None:
            tag = os.urandom(3).hex()
        self._prefix = tag
        self._counter = itertools.count(1)

    def next(self) -> str:
        return f"{self._prefix}-{next(self._counter):x}"


class BatchTicket:
    """Timestamps one request collects while riding a micro-batch.

    The gateway stamps ``parse_done``; the batcher stamps
    ``enqueued_at`` (admission complete), ``flush_at`` (the flush the
    request belongs to started evaluating), and ``kernel_done`` (its
    kernel call returned).  ``spans()`` turns the stamps into the
    contiguous stage durations; stages whose stamps are missing (error
    paths that never reached the batcher) are simply absent.
    """

    __slots__ = ("trace_id", "started", "parse_done", "enqueued_at",
                 "flush_at", "kernel_done")

    def __init__(self, trace_id: str | None, started: float) -> None:
        #: Client-supplied trace ID, or ``None`` until the gateway
        #: mints one lazily (only when a log actually records it).
        self.trace_id = trace_id
        self.started = started
        self.parse_done: float | None = None
        self.enqueued_at: float | None = None
        self.flush_at: float | None = None
        self.kernel_done: float | None = None

    def spans(self, finished: float) -> dict[str, float]:
        """Contiguous stage durations in seconds, ending at
        ``finished``; the final measured stamp absorbs the tail into
        ``serialize`` so the spans always sum to ``finished -
        started``.  (Unrolled: this runs once per served request.)"""
        spans: dict[str, float] = {}
        previous = self.started
        stamp = self.parse_done
        if stamp is not None:
            spans["parse"] = stamp - previous if stamp > previous \
                else 0.0
            previous = stamp
        stamp = self.enqueued_at
        if stamp is not None:
            spans["admission"] = stamp - previous if stamp > previous \
                else 0.0
            previous = stamp
        stamp = self.flush_at
        if stamp is not None:
            spans["queue_wait"] = stamp - previous \
                if stamp > previous else 0.0
            previous = stamp
        stamp = self.kernel_done
        if stamp is not None:
            spans["kernel"] = stamp - previous if stamp > previous \
                else 0.0
            previous = stamp
        spans["serialize"] = finished - previous \
            if finished > previous else 0.0
        return spans


class SpanRecorder:
    """Registry-backed span sink: one histogram family keyed by stage.

    ``record(spans)`` observes each stage duration into
    ``<name>{stage=...}``; the family is created once so the per-
    request cost is a dict lookup plus one histogram observe per stage.
    """

    def __init__(self, registry, name: str = "reach_stage_seconds",
                 help_text: str = "Server-side request stage "
                                  "durations.") -> None:
        self._family = registry.histogram(name, help_text,
                                          labels=("stage",))
        self._children = {stage: self._family.labels(stage)
                          for stage in REQUEST_STAGES}
        self._lock = registry.lock
        # Per-stage exemplar: the slowest *traced* observation since
        # the last reset, so a p99 bucket links to a concrete trace id.
        self._exemplars: dict[str, tuple[float, str]] = {}

    def note_exemplars(self, spans: dict[str, float],
                       trace_id: str) -> None:
        """Update the per-stage exemplars without observing the
        histograms (client-traced requests outside the span sample)."""
        exemplars = self._exemplars
        for stage, seconds in spans.items():
            worst = exemplars.get(stage)
            if worst is None or seconds > worst[0]:
                exemplars[stage] = (seconds, trace_id)

    def record(self, spans: dict[str, float],
               trace_id: str | None = None) -> None:
        children = self._children
        if trace_id is not None:
            self.note_exemplars(spans, trace_id)
        if spans.keys() <= children.keys():
            # Hot path: every span of the request under one lock
            # acquisition.
            with self._lock:
                for stage, seconds in spans.items():
                    children[stage].observe_locked(seconds)
            return
        for stage, seconds in spans.items():
            child = children.get(stage)
            if child is None:
                child = self._family.labels(stage)
                children[stage] = child
            child.observe(seconds)

    def exemplars(self, reset: bool = False) -> dict[str, dict]:
        """Per-stage slowest traced observation:
        ``{stage: {"trace": id, "ms": duration}}``."""
        out = {stage: {"trace": trace,
                       "ms": round(seconds * 1000.0, 3)}
               for stage, (seconds, trace)
               in sorted(self._exemplars.items())}
        if reset:
            self._exemplars = {}
        return out

    def percentiles_ms(self) -> dict[str, dict[str, float]]:
        """Per-stage ``{p50,p95,p99,max}_ms`` blocks (stats verb /
        BENCH_serve.json rows), stages with observations only."""
        out: dict[str, dict[str, float]] = {}
        for stage, child in self._children.items():
            if child.count:
                out[stage] = child.percentiles_ms()
        return out


class SlowQueryLog:
    """Top-K slowest requests with their span breakdowns.

    A bounded min-heap keyed on elapsed seconds: an arriving request
    that beats the current K-th slowest replaces it in O(log K).  The
    log is thread-safe (the chaos harness reads it from another
    thread) and drained by the same ``reset`` that drains the metric
    registries, so rate windows and slow-query windows line up.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        #: Advisory admission bound, readable without the lock: a
        #: request slower than ``floor`` *may* enter the log; anything
        #: faster certainly will not.  The serving hot path checks it
        #: before building the (comparatively expensive) record dict.
        #: Slightly stale reads only cost one wasted dict build.
        self.floor: float = -1.0 if capacity else float("inf")

    def offer(self, elapsed: float, record: dict[str, Any]) -> None:
        """Consider one finished request for the log."""
        if self.capacity == 0:
            return
        with self._lock:
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap,
                               (elapsed, next(self._seq), record))
            elif elapsed > self._heap[0][0]:
                heapq.heapreplace(self._heap,
                                  (elapsed, next(self._seq), record))
            else:
                return
            if len(self._heap) == self.capacity:
                self.floor = self._heap[0][0]

    def snapshot(self, reset: bool = False) -> list[dict]:
        """The logged requests, slowest first."""
        with self._lock:
            entries = sorted(self._heap, key=lambda e: -e[0])
            if reset:
                self._heap = []
                self.floor = -1.0 if self.capacity else float("inf")
        return [dict(record) for _, _, record in entries]

    def reset(self) -> None:
        with self._lock:
            self._heap = []
            self.floor = -1.0 if self.capacity else float("inf")

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)
