"""The QueryService serving layer: batched queries over any index.

The paper's evaluation hammers each index with 100,000-query loops
(Section 6, Figures 8–14), and the applications it motivates — XML path
joins, ontology subsumption — fire reachability tests in bulk.
:class:`QueryService` is the uniform high-throughput front-end for that
traffic, over *any* registered scheme:

* **backend-agnostic batching** — batches route through the index's
  public :meth:`~repro.core.base.ReachabilityIndex.label_arrays` kernel
  when one exists (Dual-I, Dual-II, closure, interval) and fall back to
  the scalar ``reachable`` loop otherwise, so every scheme serves the
  same API at its best available speed;
* **observability** — per-stage timers plus query counters in
  :class:`ServiceMetrics`, renderable with
  :func:`repro.bench.reporting.format_kv_table` and surfaced by the
  gateway's ``stats`` verb.

The service is thread-safe: the metrics are lock-guarded, and the
kernels themselves are read-only after construction.

>>> from repro.graph.generators import single_rooted_dag
>>> from repro.core.base import build_index
>>> service = QueryService(build_index(single_rooted_dag(50, 70, seed=1)))
>>> service.query_batch([(0, 7), (7, 0), (3, 3)])[2]
True
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.base import LabelArrays, ReachabilityIndex
from repro.graph.digraph import Node
from repro.obs.metrics import MetricsRegistry

__all__ = ["QueryService", "ServiceMetrics"]


class ServiceMetrics:
    """Counters and per-stage timers of a :class:`QueryService`,
    backed by a :class:`~repro.obs.metrics.MetricsRegistry`.

    The counters keep their historical read API (``metrics.queries``,
    :meth:`as_dict` with the same keys) but
    live in ``reach_service_*`` metric families, so the gateway's
    Prometheus exposition and the ``stats`` verb report the very same
    numbers, and :meth:`as_dict` with ``reset=True`` is an *atomic*
    read-and-zero per counter — an increment racing a reset lands
    either in the returned snapshot or in the fresh window, never
    nowhere.

    Counter semantics:

    queries / batches / positives:
        Totals since creation or the last reset.
    kernel_queries / scalar_queries:
        How many queries were answered by the vectorised kernel versus
        the scalar fallback loop.
    stage_seconds:
        Wall-clock per pipeline stage: ``map`` (node → component ids),
        ``kernel`` (vectorised evaluation),
        ``scalar`` (fallback loop), ``total`` (whole batches).
    """

    _COUNTERS = ("queries", "batches", "positives", "kernel_queries",
                 "scalar_queries")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        #: The backing registry — merged into the gateway's Prometheus
        #: exposition alongside the server-level families.
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(
                f"reach_service_{name}_total",
                f"QueryService {name.replace('_', ' ')} total.")
            for name in self._COUNTERS}
        self._stages = self.registry.counter(
            "reach_service_stage_seconds_total",
            "QueryService wall-clock seconds per pipeline stage.",
            labels=("stage",))
        self._batch_seconds = self.registry.histogram(
            "reach_service_batch_seconds",
            "QueryService end-to-end batch evaluation latency.")
        self.started_at = time.monotonic()

    # -- write API (QueryService hot path) ------------------------------
    def observe_batch(self, queries: int, positives: int,
                      seconds: float) -> None:
        """Account one finished batch (queries, positives, total)."""
        self._counters["batches"].inc()
        self._counters["queries"].inc(queries)
        self._counters["positives"].inc(positives)
        self._stages.labels("total").inc(seconds)
        self._batch_seconds.observe(seconds)

    def add_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock time into one pipeline stage."""
        self._stages.labels(stage).inc(seconds)

    def count_kernel(self, queries: int, seconds: float) -> None:
        self._counters["kernel_queries"].inc(queries)
        self._stages.labels("kernel").inc(seconds)

    def count_scalar(self, queries: int, seconds: float) -> None:
        self._counters["scalar_queries"].inc(queries)
        self._stages.labels("scalar").inc(seconds)

    def reset(self) -> None:
        """Zero every counter and timer and restart the uptime clock.

        The serving layer's ``stats``/``metrics`` verbs expose this so
        operators can measure rates over an interval without
        restarting the process.
        """
        self.registry.reset()
        self.started_at = time.monotonic()

    # -- read API -------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            value = counters[name].value
            return int(value) if value == int(value) else value
        raise AttributeError(name)

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Accumulated seconds per stage (insertion-ordered)."""
        family = self.registry._family(
            "reach_service_stage_seconds_total", "counter", "",
            ("stage",))
        return {values[0]: child.value
                for values, child in family.series()
                if child.value > 0.0}

    @property
    def uptime_seconds(self) -> float:
        """Monotonic seconds since creation or the last :meth:`reset`."""
        return time.monotonic() - self.started_at

    @property
    def queries_per_second(self) -> float:
        """Lifetime throughput over the ``total`` stage timer."""
        seconds = self.stage_seconds.get("total", 0.0)
        return self.queries / seconds if seconds > 0 else 0.0

    def batch_percentiles_ms(self) -> dict[str, float]:
        """Batch latency ``{p50,p95,p99,max}_ms`` estimates."""
        return self._batch_seconds.percentiles_ms()

    def as_dict(self, reset: bool = False) -> dict[str, Any]:
        """Flat dictionary view for CSV/markdown reporting.

        With ``reset``, every counter is drained atomically as it is
        read (and the uptime clock restarts), so no concurrent
        increment is ever lost between the snapshot and the zeroing.
        """
        stage_rows = sorted(
            (values[0], child)
            for values, child in self.registry._family(
                "reach_service_stage_seconds_total", "counter", "",
                ("stage",)).series())
        counts = {name: self._counters[name].snapshot(reset=reset)
                  for name in self._COUNTERS}
        counts = {name: int(v) if v == int(v) else v
                  for name, v in counts.items()}
        stages = {stage: value for stage, value in
                  ((stage, child.snapshot(reset=reset))
                   for stage, child in stage_rows)
                  if value > 0.0}
        total = stages.get("total", 0.0)
        row: dict[str, Any] = {
            "queries": counts["queries"],
            "batches": counts["batches"],
            "positives": counts["positives"],
            "kernel_queries": counts["kernel_queries"],
            "scalar_queries": counts["scalar_queries"],
            "queries_per_second": (counts["queries"] / total
                                   if total > 0 else 0.0),
            "uptime_seconds": self.uptime_seconds,
        }
        for stage, seconds in stages.items():
            row[f"seconds_{stage}"] = seconds
        if reset:
            self._batch_seconds.snapshot(reset=True)
            self.started_at = time.monotonic()
        return row


class QueryService:
    """High-throughput batch query front-end over one index.

    Parameters
    ----------
    index:
        Any registered :class:`~repro.core.base.ReachabilityIndex`.

    A service owns nothing but memory: :meth:`close` (and the context
    manager exit) releases nothing and exists so callers can scope a
    service with ``with``.
    """

    def __init__(self, index: ReachabilityIndex) -> None:
        self.index = index
        self._arrays: LabelArrays | None = index.label_arrays()
        # Lazily-built FastKernel (``False`` = not attempted yet); one
        # per service, so a hot-swapped index gets a fresh kernel.
        self._fast_kernel: Any = False
        self.metrics = ServiceMetrics()

    @classmethod
    def from_shared_memory(cls, segment: str) -> "QueryService":
        """A service over the index published under shared-memory
        segment ``segment`` (see :mod:`repro.core.shm`).

        The worker-fleet attach path: each worker process calls this
        instead of rebuilding the index, so N workers share one build.

        Raises
        ------
        FileNotFoundError
            When the segment does not exist (already swapped away).
        CorruptIndexError
            When the segment's payload fails validation — a worker
            must refuse to serve rather than answer from garbage.
        """
        from repro.core.shm import attach_index

        return cls(attach_index(segment))

    # -- public API -----------------------------------------------------
    @property
    def vectorised(self) -> bool:
        """Whether batches run through a label-array kernel."""
        return self._arrays is not None

    def query(self, u: Node, v: Node) -> bool:
        """Single reachability query through the serving pipeline.

        Shares the metrics with :meth:`query_batch`; latency-critical
        scalar loops that need none of that should call
        ``index.reachable`` directly.
        """
        return self.query_batch([(u, v)])[0]

    def query_batch(self, pairs: Iterable[tuple[Node, Node]]) -> list[bool]:
        """Answers for a batch of (source, target) pairs, in order.

        Raises
        ------
        QueryError
            If any pair references a node the index does not cover.
        """
        if not isinstance(pairs, list):
            pairs = list(pairs)
        started = time.perf_counter()
        if self._arrays is not None:
            answers, positives = self._batch_vector(pairs)
        else:
            answers, positives = self._batch_scalar(pairs)
        self.metrics.observe_batch(len(pairs), positives,
                                   time.perf_counter() - started)
        return answers

    def query_matrix(self, sources: Sequence[Node],
                     targets: Sequence[Node]) -> np.ndarray:
        """Dense ``len(sources) × len(targets)`` boolean matrix.

        The cross-product form of :meth:`query_batch` — the paper's XML
        structural-join pattern ("obtain all fiction and author
        elements, then test reachability for every combination").

        Raises
        ------
        QueryError
            If any source or target is not covered by the index.
        """
        sources = list(sources)
        targets = list(targets)
        started = time.perf_counter()
        if self._arrays is not None:
            mapped = time.perf_counter()
            cu = self._arrays.components_of(sources)
            cv = self._arrays.components_of(targets)
            self.metrics.add_stage("map", time.perf_counter() - mapped)
            grid_u, grid_v = np.meshgrid(cu, cv, indexing="ij")
            flat = self._run_kernel(grid_u.ravel(), grid_v.ravel())
            matrix = flat.reshape(len(sources), len(targets))
        else:
            reach = self.index.reachable
            evaluated = time.perf_counter()
            matrix = np.empty((len(sources), len(targets)), dtype=bool)
            for i, u in enumerate(sources):
                for j, v in enumerate(targets):
                    matrix[i, j] = reach(u, v)
            self.metrics.count_scalar(matrix.size,
                                      time.perf_counter() - evaluated)
        self.metrics.observe_batch(int(matrix.size), int(matrix.sum()),
                                   time.perf_counter() - started)
        return matrix

    def fast_kernel(self):
        """The buffer-reusing :class:`~repro.core.fastkernel.FastKernel`
        over this service's label arrays, or ``None`` when the scheme
        has no array view / no dense integer node space.

        Built once per service and cached — and since the gateway's
        hot-swap installs a *new* service per index, a reload always
        yields a kernel over the fresh arrays.
        """
        if self._fast_kernel is False:
            from repro.core.fastkernel import FastKernel

            self._fast_kernel = FastKernel.from_arrays(self._arrays)
        return self._fast_kernel

    def query_frames(self, frames: Sequence[bytes]
                     ) -> list[bytes]:
        """Answer binary ``BATCH`` payloads: packed pair bytes in,
        packed answer bitmaps out (one per frame, aligned).

        The zero-copy serving path: with a :meth:`fast_kernel` the
        payloads never become Python pair lists — they are viewed with
        ``np.frombuffer`` and evaluated in reused buffers.  Without one
        (scalar-only schemes, sparse node spaces) the frames are
        decoded and routed through :meth:`query_batch`, so every scheme
        still answers binary traffic — just not at zero-copy speed.

        Raises
        ------
        QueryError
            If any frame references a node id outside the index.
        """
        kernel = self.fast_kernel()
        if kernel is not None:
            started = time.perf_counter()
            bitmaps, total, positives = kernel.run_frames(frames)
            elapsed = time.perf_counter() - started
            self.metrics.count_kernel(total, elapsed)
            self.metrics.observe_batch(total, positives, elapsed)
            return bitmaps
        bitmaps = []
        for payload in frames:
            flat = np.frombuffer(payload, dtype="<u4")
            answers = self.query_batch(
                list(zip(flat[0::2].tolist(), flat[1::2].tolist())))
            bitmaps.append(
                np.packbits(np.asarray(answers, dtype=bool),
                            bitorder="little").tobytes())
        return bitmaps

    def close(self) -> None:
        """Release nothing (idempotent): a service owns only memory."""

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "vectorised" if self.vectorised else "scalar"
        return f"QueryService({type(self.index).__name__}, mode={mode})"

    # -- vectorised path ------------------------------------------------
    def _batch_vector(self, pairs: list[tuple[Node, Node]]
                      ) -> tuple[list[bool], int]:
        if not pairs:
            return [], 0
        arrays = self._arrays
        assert arrays is not None
        mapped = time.perf_counter()
        cu, cv = arrays.pair_components(pairs)
        self.metrics.add_stage("map", time.perf_counter() - mapped)
        out = self._run_kernel(cu, cv)
        return out.tolist(), int(out.sum())

    def _run_kernel(self, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """Evaluate aligned component-id vectors."""
        arrays = self._arrays
        assert arrays is not None
        started = time.perf_counter()
        out = arrays.query_components(cu, cv)
        self.metrics.count_kernel(len(cu), time.perf_counter() - started)
        return out

    # -- scalar fallback path -------------------------------------------
    def _batch_scalar(self, pairs: list[tuple[Node, Node]]
                      ) -> tuple[list[bool], int]:
        if not pairs:
            return [], 0
        started = time.perf_counter()
        answers = self.index.reachable_many(pairs)
        self.metrics.count_scalar(len(pairs),
                                  time.perf_counter() - started)
        return answers, sum(answers)
