"""The Dual-II labeling scheme — paper Section 4 (space/time tradeoff).

Dual-II keeps the interval labels but replaces both the TLC matrix *and*
the per-node non-tree labels with the :class:`TLCSearchTree`: queries pay
``O(log t)`` for two TLC lookups, and the index stores no ``⟨x, y, z⟩``
triples at all.  For sparse graphs ``log t`` is tiny, and in practice the
search tree is much smaller than the ``t × t`` matrix because each link is
alive in few rows.

Query ``u ⇝ v`` with labels ``[a₁, b₁)``, ``[a₂, b₂)``::

    a₂ ∈ [a₁, b₁)                       # tree path, or
    N(a₁, a₂) − N(b₁, a₂) > 0           # non-tree path (Theorem 2)

where ``N`` is evaluated by the search tree.
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
from repro.core.pipeline import DualPipeline, run_pipeline
from repro.obs.phases import PhaseProfiler
from repro.core.tlc_searchtree import TLCSearchTree, build_tlc_search_tree
from repro.exceptions import IndexBuildError, QueryError
from repro.graph.digraph import DiGraph, Node

__all__ = ["DualIIIndex", "DualIILabelArrays"]


class DualIILabelArrays(LabelArrays):
    """Theorem 2 vectorised — Dual-II's public label-array view.

    The tree test is two gathers over the interval arrays; the non-tree
    test evaluates ``N(a₁, a₂) − N(b₁, a₂)`` with the search tree's
    fused :meth:`~repro.core.tlc_searchtree.TLCSearchTree.count_diff_encoded`,
    i.e. the ``O(log t)`` lookups become batched ``searchsorted`` calls
    sharing one row search.
    """

    def __init__(self, component_of, starts, ends,
                 tree: TLCSearchTree) -> None:
        super().__init__(component_of)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.tree = tree.warm()
        # Per-component query plan: the coordinate universe is fixed (a
        # component's interval endpoints), so the row search and band
        # clipping happen once here; each batch then pays one key
        # search over gathered offsets.
        self._band, self._band_valid = tree.row_plan(self.starts)
        self._off_start = tree.x_encode(self.starts)
        self._off_end = tree.x_encode(self.ends)

    def query_components(self, cu: np.ndarray,
                         cv: np.ndarray) -> np.ndarray:
        a1 = self.starts[cu]
        b1 = self.ends[cu]
        a2 = self.starts[cv]
        tree_path = (a1 <= a2) & (a2 < b1)
        nontree = self.tree.count_diff_encoded(
            self._off_start[cu], self._off_end[cu],
            self._band[cv], self._band_valid[cv]) > 0
        return tree_path | nontree | (cu == cv)

    def query_components_into(self, cu: np.ndarray, cv: np.ndarray,
                              out: np.ndarray, scratch: dict) -> None:
        """Theorem 2 evaluated in place — the fast kernel's rank path.

        Bit-identical to :meth:`query_components`, but every
        intermediate lives in the caller's ``scratch`` buffers:
        ``"i1"/"i2"/"i3"`` (int64) and ``"b1"/"b2"`` (bool) of at least
        ``n`` elements plus the ``"p"`` probe staging buffer (int64,
        ``2 * n``) for the search tree's
        :meth:`~repro.core.tlc_searchtree.TLCSearchTree.positive_diff_encoded_into`.
        """
        n = cu.shape[0]
        i1 = scratch["i1"][:n]
        i2 = scratch["i2"][:n]
        i3 = scratch["i3"][:n]
        b1 = scratch["b1"][:n]
        b2 = scratch["b2"][:n]
        # Tree path: a1 <= a2 < b1, then the reflexive u == v term.
        np.take(self.starts, cu, out=i1)
        np.take(self.starts, cv, out=i2)
        np.take(self.ends, cu, out=i3)
        np.less_equal(i1, i2, out=b1)
        np.less(i2, i3, out=b2)
        np.logical_and(b1, b2, out=out)
        np.equal(cu, cv, out=b1)
        np.logical_or(out, b1, out=out)
        # Non-tree path through the precomputed per-component plan.
        np.take(self._off_start, cu, out=i1)
        np.take(self._off_end, cu, out=i2)
        np.take(self._band, cv, out=i3)
        np.take(self._band_valid, cv, out=b1)
        self.tree.positive_diff_encoded_into(
            i1, i2, i3, b1, out=b2, probes=scratch["p"][:2 * n])
        np.logical_or(out, b2, out=out)


@register_scheme
class DualIIIndex(ReachabilityIndex):
    """Logarithmic-query-time dual labeling with reduced space (Dual-II):
    int32 interval columns plus the TLC search tree."""

    scheme_name = "dual-ii"

    def __init__(self, component_of, tree: TLCSearchTree,
                 starts: np.ndarray, ends: np.ndarray, stats: IndexStats,
                 pipeline: DualPipeline | None = None) -> None:
        self._pipeline = pipeline
        self._component_of = component_of
        self._tree = tree
        self._starts = starts
        self._ends = ends
        self._stats = stats
        self._scalar: tuple | None = None
        self._arrays: DualIILabelArrays | None = None

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: DiGraph, use_meg: bool = True,
              backend: str = "fast", **options: Any) -> "DualIIIndex":
        """Build a Dual-II index (options as in :class:`DualIIndex`)."""
        if options:
            raise TypeError(f"unknown options: {sorted(options)}")
        wall_start = time.perf_counter()
        pipeline = run_pipeline(graph, use_meg=use_meg, backend=backend)

        profiler = PhaseProfiler()
        with profiler.phase("tlc_search_tree"):
            tree = build_tlc_search_tree(pipeline.transitive_table)
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
                "interval_labels": 2 * INT_BYTES * num_components,
                "tlc_search_tree": tree.nbytes,
            },
        )
        return cls(pipeline.condensation.component_of, tree,
                   np.asarray(pipeline.interval_starts, dtype=np.int32),
                   np.asarray(pipeline.interval_ends, dtype=np.int32),
                   stats, pipeline)

    # ------------------------------------------------------------------
    def reachable(self, u: Node, v: Node) -> bool:
        if self._scalar is None:  # list copies, as in DualIIndex
            self._scalar = (dict(self._component_of),
                            self._starts.tolist(), self._ends.tolist())
        component_of, starts, ends = self._scalar
        try:
            cu = component_of[u]
            cv = component_of[v]
        except KeyError as exc:
            raise QueryError(exc.args[0]) from None
        if cu == cv:
            return True
        a1, b1 = starts[cu], ends[cu]
        a2 = starts[cv]
        if a1 <= a2 < b1:
            return True
        count = self._tree.count
        return count(a1, a2) - count(b1, a2) > 0

    def stats(self) -> IndexStats:
        return self._stats

    def label_arrays(self) -> DualIILabelArrays:
        """Public numpy view of the label arrays (built once, cached)."""
        if self._arrays is None:
            self._arrays = DualIILabelArrays(
                self._component_of, self._starts, self._ends, self._tree)
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
    def search_tree(self) -> TLCSearchTree:
        """The underlying TLC search tree."""
        return self._tree

    @property
    def t(self) -> int:
        """Number of retained non-tree edges."""
        return self._stats.t or 0

    def __repr__(self) -> str:
        return (f"DualIIIndex(n={self._stats.num_nodes}, "
                f"m={self._stats.num_edges}, t={self.t})")
