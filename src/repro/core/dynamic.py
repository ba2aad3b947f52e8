"""Incremental dual labeling for evolving graphs (extension).

The 2006 paper labels a static graph; its natural follow-up question —
what happens when edges arrive — is what :class:`DynamicDualIndex`
answers.  The design exploits the dual-labeling decomposition:

* The *interval labels* depend only on the spanning forest.  An edge
  insertion whose endpoints already exist never has to change them:
  the new edge simply becomes one more **non-tree edge**.
* The non-tree side (link table → transitive link table → TLC matrix →
  non-tree labels) is ``O(t³)`` worst case but tiny for sparse graphs,
  so it is rebuilt from the recorded non-tree edge set on demand.

Consequently:

* ``add_edge(u, v)`` with known endpoints and no new cycle is an
  **incremental** update: amortised cost is one non-tree-side rebuild,
  never a full relabeling of the ``O(n)`` tree side.
* ``add_edge`` that closes a cycle, ``add_node`` + edges to it, and
  ``remove_edge`` invalidate the decomposition and schedule a **full**
  rebuild (lazily, at the next query).

Queries always reflect every mutation applied so far; rebuild accounting
is exposed via :attr:`full_rebuilds` / :attr:`incremental_updates` so
benchmarks can show the savings.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dual_i import DualIIndex
from repro.core.linktable import build_link_table, transitive_link_table
from repro.core.nontree_labels import assign_nontree_labels
from repro.core.tlc_matrix import build_tlc_matrix
from repro.graph.digraph import DiGraph, Node

__all__ = ["DynamicDualIndex"]


class DynamicDualIndex:
    """A Dual-I index over a mutable graph, with incremental inserts."""

    def __init__(self, graph: Optional[DiGraph] = None,
                 use_meg: bool = True) -> None:
        """Wrap (a copy of) ``graph``; an empty graph if omitted.

        ``use_meg`` applies to *full* rebuilds; incrementally added
        edges are kept verbatim until the next full rebuild folds them
        through MEG again.
        """
        self._graph = graph.copy() if graph is not None else DiGraph()
        self._use_meg = use_meg
        self._index: Optional[DualIIndex] = None
        # Extra non-tree edges (DAG-node-id pairs) added since the last
        # full rebuild; folded into the link table on refresh.
        self._extra_links: list[tuple[int, int]] = []
        self._nontree_dirty = False
        self._full_dirty = True
        self.full_rebuilds = 0
        self.incremental_updates = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The current graph (read-only by convention)."""
        return self._graph

    def add_node(self, node: Node) -> None:
        """Insert a node; schedules a full rebuild if it is new."""
        if node not in self._graph:
            self._graph.add_node(node)
            self._full_dirty = True

    def add_edge(self, u: Node, v: Node) -> None:
        """Insert edge ``u -> v``.

        Incremental when both endpoints exist, the index is otherwise
        clean, and the edge does not merge SCCs (i.e. ``v`` does not
        already reach ``u``); full rebuild otherwise.
        """
        if self._graph.has_edge(u, v):
            return
        endpoints_known = u in self._graph and v in self._graph
        if not endpoints_known or self._full_dirty:
            self._graph.add_edge(u, v)
            self._full_dirty = True
            return
        # Cycle check against the *current* labels: if v reaches u, the
        # new edge collapses components and intervals must change.
        self._refresh()
        if self.reachable(v, u):
            self._graph.add_edge(u, v)
            self._full_dirty = True
            return
        self._graph.add_edge(u, v)
        cu = self._index._component_of[u]
        cv = self._index._component_of[v]
        if cu != cv:
            self._extra_links.append((cu, cv))
            self._nontree_dirty = True
            self.incremental_updates += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove an edge; deletions always schedule a full rebuild
        (a removed tree edge invalidates the intervals, and a removed
        non-tree edge may have been MEG-pruned into others)."""
        self._graph.remove_edge(u, v)
        self._full_dirty = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reachable(self, u: Node, v: Node) -> bool:
        """Reachability on the graph as mutated so far."""
        self._refresh()
        return self._index.reachable(u, v)

    def stats(self):
        """Stats of the underlying index (refreshing first)."""
        self._refresh()
        return self._index.stats()

    # ------------------------------------------------------------------
    # rebuild machinery
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        if self._full_dirty or self._index is None:
            self._index = DualIIndex.build(self._graph,
                                           use_meg=self._use_meg)
            self._extra_links.clear()
            self._full_dirty = False
            self._nontree_dirty = False
            self.full_rebuilds += 1
            return
        if not self._nontree_dirty:
            return
        # Incremental path: keep condensation/forest/intervals, rebuild
        # only the non-tree side with the extra links appended.
        index = self._index
        pipeline = index.pipeline
        forest = pipeline.forest
        labeling = pipeline.labeling
        nontree_edges = list(forest.nontree_edges) + self._extra_links
        base = build_link_table(nontree_edges, labeling)
        closed = transitive_link_table(base)
        tlc = build_tlc_matrix(closed)
        index._tlc = tlc
        index._label_x, index._label_y, index._label_z = \
            assign_nontree_labels(forest, labeling, closed).columns()
        index._scalar = index._arrays = None  # made from the old labels
        stats = index.stats()
        stats.t = len(base)
        stats.transitive_links = len(closed)
        stats.space_bytes["tlc_matrix"] = tlc.nbytes
        self._nontree_dirty = False

    def __contains__(self, node: Node) -> bool:
        return node in self._graph

    def __repr__(self) -> str:
        return (f"DynamicDualIndex(n={self._graph.num_nodes}, "
                f"m={self._graph.num_edges}, "
                f"full_rebuilds={self.full_rebuilds}, "
                f"incremental={self.incremental_updates})")
