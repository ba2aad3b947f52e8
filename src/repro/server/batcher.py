"""Cross-connection micro-batching with bounded admission.

The dual-labeling kernels answer a 512-pair batch in barely more time
than a single pair (see ``tests/test_service.py``'s >=5x acceptance
test), so the gateway's throughput hinges on *coalescing*: queries
arriving on different connections within a small window should share
one ``query_batch()`` invocation.  :class:`MicroBatcher` implements the
standard size-or-deadline trigger:

* every submitted request appends its pairs to one shared buffer;
* the buffer flushes immediately once it holds ``max_batch`` pairs, or
  after ``max_delay`` seconds from the first buffered request —
  whichever comes first (``max_delay <= 0`` or ``max_batch <= 1``
  degenerates to one flush per request, the unbatched baseline);
* each flush dispatches **one** evaluation of the concatenated pair
  vector and scatters the answer slices back to the per-request
  futures.

Admission control bounds memory: at most ``max_pending`` pairs may be
in flight (buffered or evaluating).  Over capacity, ``policy="block"``
makes ``submit`` wait (backpressure propagates to the socket via the
connection handler), while ``policy="shed"`` raises
:class:`OverloadedError` immediately, which the gateway turns into an
explicit ``overloaded`` error reply.

A failing flush (e.g. one request naming an unknown node) is isolated
by re-evaluating each member request separately, so a bad query cannot
poison the answers of the connections it happened to share a flush
with.

The class is event-loop-confined: every method must be called from the
loop that runs the flush tasks (the gateway guarantees this).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Awaitable, Callable

from repro.exceptions import ReproError
from repro.obs.tracing import BatchTicket

__all__ = ["MicroBatcher", "OverloadedError"]


class OverloadedError(ReproError):
    """The admission queue is full and the policy is ``shed``."""


def _bucket(value: int) -> int:
    """Histogram bucket: ``value`` rounded up to a power of two."""
    bucket = 1
    while bucket < value:
        bucket *= 2
    return bucket


class MicroBatcher:
    """Coalesce concurrent query submissions into shared kernel calls.

    Parameters
    ----------
    run_batch:
        Async callable evaluating one concatenated pair list (the
        gateway runs ``QueryService.query_batch`` on a worker thread).
    max_batch:
        Flush as soon as this many pairs are buffered.
    max_delay:
        Flush this many seconds after the first buffered request.
    max_pending:
        Admission bound on in-flight pairs (buffered + evaluating).
    policy:
        ``"block"`` (default) or ``"shed"`` — what to do when a
        submission would exceed ``max_pending``.
    """

    def __init__(self, run_batch: Callable[[list], Awaitable[list]], *,
                 max_batch: int = 512, max_delay: float = 0.002,
                 max_pending: int = 8192, policy: str = "block") -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}")
        if policy not in ("block", "shed"):
            raise ValueError(
                f"policy must be 'block' or 'shed', got {policy!r}")
        self._evaluate = run_batch
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.max_pending = max_pending
        self.policy = policy
        self._entries: list[
            tuple[list, asyncio.Future, BatchTicket | None]] = []
        self._buffered = 0
        self._in_flight = 0
        self._timer: asyncio.TimerHandle | None = None
        self._waiters: deque[asyncio.Future] = deque()
        self._tasks: set[asyncio.Task] = set()
        self._closed = False
        # Counters (read by the gateway's ``stats`` verb).
        self.flushes = 0
        self.multi_query_flushes = 0
        self.flushed_pairs = 0
        self.flushed_requests = 0
        self.max_flush_pairs = 0
        self.shed_requests = 0
        self.isolation_reruns = 0
        #: individual requests that ultimately failed (their future got
        #: the kernel exception after the isolation rerun also raised).
        self.flush_failures = 0
        #: requests-per-flush histogram, power-of-two buckets.
        self.occupancy: dict[int, int] = {}
        #: pairs-per-flush histogram, power-of-two buckets.
        self.flush_sizes: dict[int, int] = {}

    # -- public API -----------------------------------------------------
    def try_submit(self, pairs: list,
                   ticket: BatchTicket | None = None
                   ) -> "asyncio.Future | None":
        """Synchronous fast path: enqueue without awaiting.

        Returns the future that will carry the answers, or ``None``
        when the admission queue is full under ``policy="block"`` (the
        caller must fall back to the awaiting :meth:`submit`).  This
        path exists because the gateway calls it once per request:
        skipping the coroutine round-trip is a measurable win on the
        serving hot path.

        ``ticket`` (when given) collects the trace stamps — admission
        complete, flush start, kernel done — that the gateway turns
        into per-stage spans.

        Raises
        ------
        OverloadedError
            Under ``policy="shed"`` when the queue is full, and under
            either policy when a single request exceeds the whole
            queue capacity.
        """
        loop = asyncio.get_running_loop()
        if self._closed:
            raise OverloadedError("batcher is shut down")
        n = len(pairs)
        if n == 0:
            future: asyncio.Future = loop.create_future()
            future.set_result([])
            return future
        if n > self.max_pending:
            self.shed_requests += 1
            raise OverloadedError(
                f"request of {n} pairs exceeds the admission queue "
                f"capacity of {self.max_pending}")
        if self._in_flight + n > self.max_pending:
            if self.policy == "shed":
                self.shed_requests += 1
                raise OverloadedError(
                    f"admission queue full ({self._in_flight} pairs "
                    f"in flight, capacity {self.max_pending})")
            return None
        self._in_flight += n
        return self._enqueue(pairs, n, loop, ticket)

    async def submit(self, pairs: list,
                     ticket: BatchTicket | None = None) -> list:
        """Answers for one request's pairs, via a shared flush.

        Raises
        ------
        OverloadedError
            Under ``policy="shed"`` when the queue is full, and under
            either policy when a single request exceeds the whole
            queue capacity.
        """
        future = self.try_submit(pairs, ticket)
        if future is None:
            # Block policy with a full queue: wait for room.
            loop = asyncio.get_running_loop()
            n = len(pairs)
            while self._in_flight + n > self.max_pending:
                waiter: asyncio.Future = loop.create_future()
                self._waiters.append(waiter)
                await waiter
                if self._closed:
                    raise OverloadedError("batcher is shut down")
            self._in_flight += n
            future = self._enqueue(pairs, n, loop, ticket)
        return await future

    def _enqueue(self, pairs: list, n: int,
                 loop: asyncio.AbstractEventLoop,
                 ticket: BatchTicket | None = None) -> asyncio.Future:
        future: asyncio.Future = loop.create_future()
        if ticket is not None:
            ticket.enqueued_at = time.perf_counter()
        self._entries.append((pairs, future, ticket))
        self._buffered += n
        if self._buffered >= self.max_batch or self.max_delay <= 0:
            self._flush()
        elif self._timer is None:
            self._timer = loop.call_later(self.max_delay, self._flush)
        return future

    @property
    def in_flight(self) -> int:
        """Pairs admitted but not yet answered."""
        return self._in_flight

    async def close(self) -> None:
        """Flush the buffer and wait for outstanding evaluations."""
        self._closed = True
        self._flush()
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(
                    OverloadedError("batcher is shut down"))
        if self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)

    def stats(self) -> dict:
        """Counter snapshot for the ``stats`` verb."""
        return {
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay * 1000.0,
            "max_pending": self.max_pending,
            "policy": self.policy,
            "in_flight_pairs": self._in_flight,
            "flushes": self.flushes,
            "multi_query_flushes": self.multi_query_flushes,
            "flushed_requests": self.flushed_requests,
            "flushed_pairs": self.flushed_pairs,
            "mean_flush_pairs": (self.flushed_pairs / self.flushes
                                 if self.flushes else 0.0),
            "max_flush_pairs": self.max_flush_pairs,
            "shed_requests": self.shed_requests,
            "isolation_reruns": self.isolation_reruns,
            "flush_failures": self.flush_failures,
            "occupancy_histogram": {
                str(k): v for k, v in sorted(self.occupancy.items())},
            "flush_pairs_histogram": {
                str(k): v for k, v in sorted(self.flush_sizes.items())},
        }

    def collect(self) -> list[dict]:
        """Scrape-time metric families for the Prometheus exposition.

        The batcher's counters are plain event-loop-confined ints (no
        locks on the hot path); this renders them into the collector
        shape :meth:`repro.obs.metrics.MetricsRegistry
        .register_collector` expects.  Power-of-two occupancy and
        flush-size buckets are exposed as labelled gauges rather than
        Prometheus histograms because they count *flushes per bucket*,
        not cumulative observations.
        """
        counters = (
            ("flushes", self.flushes, "Micro-batch flushes."),
            ("multi_query_flushes", self.multi_query_flushes,
             "Flushes coalescing more than one request."),
            ("flushed_requests", self.flushed_requests,
             "Requests answered through flushes."),
            ("flushed_pairs", self.flushed_pairs,
             "Pairs evaluated through flushes."),
            ("shed_requests", self.shed_requests,
             "Requests rejected by admission control."),
            ("isolation_reruns", self.isolation_reruns,
             "Failed flushes re-evaluated per request."),
            ("flush_failures", self.flush_failures,
             "Requests that failed even in isolation."),
        )
        families = [
            {"name": f"reach_batcher_{name}_total", "type": "counter",
             "help": help_text, "samples": [({}, value)]}
            for name, value, help_text in counters]
        families.append({
            "name": "reach_batcher_in_flight_pairs", "type": "gauge",
            "help": "Pairs admitted but not yet answered.",
            "samples": [({}, self._in_flight)]})
        families.append({
            "name": "reach_batcher_occupancy_flushes", "type": "gauge",
            "help": "Flushes per power-of-two requests-per-flush "
                    "bucket.",
            "samples": [({"bucket": str(k)}, v) for k, v in
                        sorted(self.occupancy.items())]})
        families.append({
            "name": "reach_batcher_flush_pairs_flushes",
            "type": "gauge",
            "help": "Flushes per power-of-two pairs-per-flush bucket.",
            "samples": [({"bucket": str(k)}, v) for k, v in
                        sorted(self.flush_sizes.items())]})
        return families

    # -- admission ------------------------------------------------------
    def _release(self, n: int) -> None:
        self._in_flight -= n
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    # -- flushing -------------------------------------------------------
    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._entries:
            return
        entries = self._entries
        self._entries = []
        self._buffered = 0
        num_pairs = sum(len(pairs) for pairs, _, _ in entries)
        self.flushes += 1
        self.flushed_requests += len(entries)
        self.flushed_pairs += num_pairs
        if len(entries) > 1:
            self.multi_query_flushes += 1
        if num_pairs > self.max_flush_pairs:
            self.max_flush_pairs = num_pairs
        bucket = _bucket(len(entries))
        self.occupancy[bucket] = self.occupancy.get(bucket, 0) + 1
        bucket = _bucket(num_pairs)
        self.flush_sizes[bucket] = self.flush_sizes.get(bucket, 0) + 1
        task = asyncio.ensure_future(self._execute(entries, num_pairs))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _execute(self, entries: list, num_pairs: int) -> None:
        pairs = [pair for entry_pairs, _, _ in entries
                 for pair in entry_pairs]
        flush_at = time.perf_counter()
        for _, _, ticket in entries:
            if ticket is not None:
                ticket.flush_at = flush_at
        try:
            try:
                answers = await self._evaluate(pairs)
            except Exception:
                await self._execute_isolated(entries)
                return
            kernel_done = time.perf_counter()
            offset = 0
            for entry_pairs, future, ticket in entries:
                n = len(entry_pairs)
                if ticket is not None:
                    ticket.kernel_done = kernel_done
                if not future.done():
                    future.set_result(list(answers[offset:offset + n]))
                offset += n
        finally:
            self._release(num_pairs)

    async def _execute_isolated(self, entries: list) -> None:
        """Fallback after a failed flush: evaluate per request so one
        bad query (unknown node, say) only fails its own submitter."""
        self.isolation_reruns += 1
        for entry_pairs, future, ticket in entries:
            if future.done():
                continue
            try:
                answers = await self._evaluate(list(entry_pairs))
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
                    future.set_result(list(answers))
