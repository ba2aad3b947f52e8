"""The Dual-I labeling scheme — paper Section 3 (main result, Theorem 3).

Dual-I answers reachability in **constant time** with three artefacts:

* interval labels ``[a, b)`` per node (tree reachability);
* non-tree labels ``⟨x, y, z⟩`` per node (pre-snapped TLC coordinates);
* the TLC matrix ``N`` (``≤ (t+1) × (t+1)`` integers with zero border).

Query ``u ⇝ v`` (Theorem 3)::

    a₂ ∈ [a₁, b₁)               # tree path, or
    N[x₁, z₂] − N[y₁, z₂] > 0   # path through non-tree edges

Both tests are O(1).  Cyclic inputs are condensed first; queries on
original vertices go through the component map (vertices in the same SCC
trivially reach each other).

Implementation note: the scalar :meth:`DualIIndex.reachable` reads
Python-list copies of the numpy columns, made on its first call — for
single-element access these are several times faster than numpy scalar
indexing, which matters in the paper's 100 000-query timing loops.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.core.base import (
    INT_BYTES,
    IndexStats,
    LabelArrays,
    ReachabilityIndex,
    register_scheme,
)
from repro.core.nontree_labels import assign_nontree_labels
from repro.core.pipeline import DualPipeline, run_pipeline
from repro.obs.phases import PhaseProfiler
from repro.core.tlc_matrix import TLCMatrix, build_tlc_matrix, pack_tlc_matrix
from repro.exceptions import IndexBuildError, QueryError
from repro.graph.digraph import DiGraph, Node

__all__ = ["DualIIndex", "DualILabelArrays"]


class DualILabelArrays(LabelArrays):
    """Theorem 3 as numpy gathers — Dual-I's public label-array view.

    The attributes mirror the paper's artefacts: interval labels
    ``[starts, ends)``, non-tree labels ``⟨label_x, label_y, label_z⟩``
    (all dense int32 columns, indexed by component id) and the TLC
    matrix at whatever cell width it is stored in.  A batch of queries
    is a handful of fancy-indexing gathers — no Python loop.  The
    non-tree test compares the two gathered cells
    (``N[x₁, z₂] > N[y₁, z₂]``) rather than subtracting them, so
    unsigned packed cells cannot underflow.
    """

    def __init__(self, component_of, starts, ends, label_x, label_y,
                 label_z, matrix: np.ndarray) -> None:
        super().__init__(component_of)
        self.starts = np.asarray(starts, dtype=np.int32)
        self.ends = np.asarray(ends, dtype=np.int32)
        self.label_x = np.asarray(label_x, dtype=np.int32)
        self.label_y = np.asarray(label_y, dtype=np.int32)
        self.label_z = np.asarray(label_z, dtype=np.int32)
        self.matrix = matrix
        # Flat row-major view for the buffer-reusing kernel: the 2-D
        # fancy index N[x, z] becomes one gather at x * ncols + z.
        self._flat_matrix = np.ascontiguousarray(matrix).reshape(-1)
        self._ncols = matrix.shape[1]

    def query_components(self, cu: np.ndarray,
                         cv: np.ndarray) -> np.ndarray:
        a1 = self.starts[cu]
        b1 = self.ends[cu]
        a2 = self.starts[cv]
        tree = (a1 <= a2) & (a2 < b1)
        z2 = self.label_z[cv]
        nontree = (self.matrix[self.label_x[cu], z2]
                   > self.matrix[self.label_y[cu], z2])
        return tree | nontree | (cu == cv)

    def query_components_into(self, cu: np.ndarray, cv: np.ndarray,
                              out: np.ndarray,
                              scratch: dict[str, np.ndarray]
                              ) -> np.ndarray:
        """Theorem 3 without a single fresh allocation.

        The same math as :meth:`query_components`, but every
        intermediate lands in a caller-owned buffer (``scratch`` holds
        int32 ``c1``–``c3`` for label gathers, int64 ``i1``/``i2`` for
        flat matrix offsets, ``m1``/``m2`` of the matrix's dtype and
        bool ``b1``/``b2``, each at least ``len(cu)`` long) and the
        answers land in ``out``.  This is the
        :class:`~repro.core.fastkernel.FastKernel` hot path: at serving
        batch sizes the allocator traffic of the expression form is a
        measurable fraction of the kernel, and reusing buffers keeps
        the per-call cost flat.  Answers are bit-for-bit those of
        :meth:`query_components` (asserted by the differential
        harness).
        """
        n = cu.shape[0]
        c1, c2, c3 = (scratch[k][:n] for k in ("c1", "c2", "c3"))
        i1, i2 = scratch["i1"][:n], scratch["i2"][:n]
        m1, m2 = scratch["m1"][:n], scratch["m2"][:n]
        b1, b2 = scratch["b1"][:n], scratch["b2"][:n]
        np.take(self.starts, cu, out=c1)            # a1
        np.take(self.starts, cv, out=c2)            # a2
        np.less_equal(c1, c2, out=b1)               # a1 <= a2
        np.take(self.ends, cu, out=c3)              # b1
        np.less(c2, c3, out=b2)                     # a2 < b1
        np.logical_and(b1, b2, out=out)             # tree path
        np.take(self.label_z, cv, out=c3)           # z2
        np.take(self.label_x, cu, out=c1)
        np.multiply(c1, self._ncols, out=i1, dtype=np.int64)
        i1 += c3                                    # x1 * ncols + z2
        np.take(self.label_y, cu, out=c2)
        np.multiply(c2, self._ncols, out=i2, dtype=np.int64)
        i2 += c3                                    # y1 * ncols + z2
        np.take(self._flat_matrix, i1, out=m1)      # N[x1, z2]
        np.take(self._flat_matrix, i2, out=m2)      # N[y1, z2]
        np.greater(m1, m2, out=b1)                  # non-tree path
        np.logical_or(out, b1, out=out)
        np.equal(cu, cv, out=b2)                    # same component
        np.logical_or(out, b2, out=out)
        return out


@register_scheme
class DualIIndex(ReachabilityIndex):
    """Constant-query-time dual labeling (Dual-I): int32 label columns
    indexed by component id plus the TLC matrix, and the ``pipeline``
    unless loaded from an image (:mod:`repro.core.serialize`)."""

    scheme_name = "dual-i"

    def __init__(self, component_of, tlc,
                 starts: np.ndarray, ends: np.ndarray,
                 label_x: np.ndarray, label_y: np.ndarray,
                 label_z: np.ndarray, stats: IndexStats,
                 pipeline: DualPipeline | None = None) -> None:
        self._pipeline = pipeline
        self._component_of = component_of
        self._tlc = tlc
        self._starts = starts
        self._ends = ends
        self._label_x = label_x
        self._label_y = label_y
        self._label_z = label_z
        self._stats = stats
        self._scalar: tuple | None = None
        self._arrays: DualILabelArrays | None = None

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: DiGraph, use_meg: bool = True,
              compact: bool = False, matrix_backend: str = "array",
              backend: str = "fast", **options: Any) -> "DualIIndex":
        """Build a Dual-I index.

        Parameters
        ----------
        graph: any directed graph (cycles handled via condensation).
        use_meg: run the minimal-equivalent-graph preprocessing
            (Section 5); on by default.
        compact: shorthand for ``matrix_backend="packed"``.
        matrix_backend: storage layout of the TLC matrix —
            ``"array"`` (int64 numpy array, default), ``"packed"``
            (smallest byte-width dtype that fits), or ``"bitpacked"``
            (Property 2's ``ceil(log₂)`` bits per cell inside uint64
            words; see :mod:`repro.core.tlc_bitpacked`).  All three give
            identical answers; they differ only in resident size.
        backend: pipeline construction backend — ``"fast"`` (CSR/array,
            default) or ``"python"`` (dict-based reference); see
            :func:`repro.core.pipeline.run_pipeline`.  Identical index
            either way.
        """
        if options:
            raise TypeError(f"unknown options: {sorted(options)}")
        if matrix_backend not in {"array", "packed", "bitpacked"}:
            raise ValueError(
                f"matrix_backend must be 'array', 'packed' or "
                f"'bitpacked', got {matrix_backend!r}")
        if compact and matrix_backend == "array":
            matrix_backend = "packed"
        wall_start = time.perf_counter()
        pipeline = run_pipeline(graph, use_meg=use_meg, backend=backend)

        profiler = PhaseProfiler()
        with profiler.phase("tlc_matrix"):
            tlc = build_tlc_matrix(pipeline.transitive_table)
            if matrix_backend == "packed":
                tlc = pack_tlc_matrix(tlc)
            elif matrix_backend == "bitpacked":
                from repro.core.tlc_bitpacked import bitpack_tlc_matrix

                tlc = bitpack_tlc_matrix(tlc)

        with profiler.phase("nontree_labels"):
            label_x, label_y, label_z = assign_nontree_labels(
                pipeline.forest, pipeline.labeling,
                pipeline.transitive_table).columns()
        pipeline.phase_seconds.update(profiler.seconds)

        num_components = pipeline.condensation.num_components
        build_seconds = time.perf_counter() - wall_start
        stats = IndexStats(
            scheme=cls.scheme_name,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            dag_nodes=pipeline.condensation.num_components,
            dag_edges=pipeline.condensation.dag.num_edges,
            meg_edges=pipeline.meg_edges,
            t=pipeline.t,
            transitive_links=pipeline.num_transitive_links,
            build_seconds=build_seconds,
            phase_seconds=dict(pipeline.phase_seconds),
            space_bytes={
                # [a, b) per node: 2 ints.
                "interval_labels": 2 * INT_BYTES * num_components,
                # <x, y, z> per node: 3 ints.
                "nontree_labels": 3 * INT_BYTES * num_components,
                "tlc_matrix": tlc.nbytes,
            },
        )
        return cls(pipeline.condensation.component_of, tlc,
                   np.asarray(pipeline.interval_starts, dtype=np.int32),
                   np.asarray(pipeline.interval_ends, dtype=np.int32),
                   label_x, label_y, label_z, stats, pipeline)

    # ------------------------------------------------------------------
    def _scalar_labels(self) -> tuple:
        """List copies of the labels, made on the first scalar query."""
        if self._scalar is None:
            self._scalar = (dict(self._component_of),) + tuple(
                column.tolist() for column in (
                    self._starts, self._ends, self._label_x,
                    self._label_y, self._label_z, self._tlc.matrix))
        return self._scalar

    def reachable(self, u: Node, v: Node) -> bool:
        component_of, starts, ends, xs, ys, zs, rows = \
            self._scalar or self._scalar_labels()
        try:
            cu = component_of[u]
            cv = component_of[v]
        except KeyError as exc:
            raise QueryError(exc.args[0]) from None
        if cu == cv:
            return True
        a2 = starts[cv]
        if starts[cu] <= a2 < ends[cu]:
            return True
        z2 = zs[cv]
        return rows[xs[cu]][z2] > rows[ys[cu]][z2]

    def stats(self) -> IndexStats:
        return self._stats

    def label_arrays(self) -> DualILabelArrays:
        """Public numpy view of the label arrays (built once, cached)."""
        if self._arrays is None:
            self._arrays = DualILabelArrays(
                self._component_of, self._starts, self._ends,
                self._label_x, self._label_y, self._label_z,
                self._tlc.matrix)
        return self._arrays

    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> DualPipeline:
        """The preprocessing artefacts (for inspection/diagnostics)."""
        if self._pipeline is None:
            raise IndexBuildError(
                "a deserialised index carries no pipeline artefacts")
        return self._pipeline

    @property
    def tlc_matrix(self) -> TLCMatrix:
        """The underlying TLC matrix."""
        return self._tlc

    @property
    def t(self) -> int:
        """Number of retained non-tree edges."""
        return self._stats.t or 0

    def __repr__(self) -> str:
        return (f"DualIIndex(n={self._stats.num_nodes}, "
                f"m={self._stats.num_edges}, t={self.t})")
