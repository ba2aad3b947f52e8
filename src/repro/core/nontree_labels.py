"""Non-tree labels ``⟨x, y, z⟩`` — paper Section 3.4 (Algorithm 2).

Each node ``u`` with interval label ``[a, b)`` receives a triple:

* ``x`` — index (into the TLC grid's x coordinates ``X``) of the smallest
  link tail ``>= a``; the "−" sentinel if none exists.  This is ``a``
  pre-snapped: ``N(a, ·)`` equals the stored grid value at ``x``.
* ``y`` — likewise for ``b``.
* ``z`` — index (into the grid's y coordinates ``Y``) of the start label
  of the lowest tree ancestor of ``u`` (or ``u`` itself) that has a
  non-tree incoming edge; "−" if no such ancestor exists.  Lemma 2 shows
  snapping the query's y coordinate to this ancestor preserves the TLC
  difference, so only ``|Y| <= t`` grid rows need to exist.

With these labels Theorem 3's whole query becomes two array reads:
``N[x₁, z₂] − N[y₁, z₂] > 0``.

Sentinels are stored as ``len(X)`` / ``len(Y)`` so they index the TLC
matrix's zero border directly — no branching at query time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.core.intervals import IntervalLabeling
from repro.core.linktable import LinkTable
from repro.graph.digraph import Node
from repro.graph.spanning import SpanningForest

__all__ = ["NonTreeLabels", "assign_nontree_labels"]


@dataclass(frozen=True)
class NonTreeLabels:
    """The ``⟨x, y, z⟩`` triples for every node.

    ``labels[u] == (x, y, z)`` with sentinel values ``len(xs)`` /
    ``len(ys)`` standing in for the paper's "−".
    """

    labels: dict[Node, tuple[int, int, int]]
    sentinel_x: int
    sentinel_y: int

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, node: Node) -> tuple[int, int, int]:
        return self.labels[node]

    def columns(self) -> tuple:
        """``(label_x, label_y, label_z)`` int32 columns by node id."""
        return tuple(np.array([self.labels[cid] for cid in range(len(self))],
                              dtype=np.int32).reshape(-1, 3).T.copy())

    def is_sentinel_z(self, node: Node) -> bool:
        """``True`` iff ``node`` has no ancestor with a non-tree incoming
        edge (its ``z`` is "−")."""
        return self.labels[node][2] == self.sentinel_y


def assign_nontree_labels(forest: SpanningForest,
                          labeling: IntervalLabeling,
                          table: LinkTable) -> NonTreeLabels:
    """Assign non-tree labels by one DFS over the forest (Algorithm 2).

    ``table`` may be the base or the transitive link table — their
    coordinate sets ``X``/``Y`` coincide (derived links reuse original
    tails and head starts), and the labels depend only on those sets.

    The ``z`` component is maintained with an explicit ancestor stack:
    entering a node whose ``start`` is a link head pushes its ``Y`` index,
    leaving pops it; a node's ``z`` is the stack top at leave time, which
    by construction is its lowest ancestor-or-self with an incoming link.
    """
    xs, ys = table.xs, table.ys
    sentinel_x, sentinel_y = len(xs), len(ys)
    has_incoming = set(ys)

    labels: dict[Node, tuple[int, int, int]] = {}
    for root in forest.roots:
        z_stack: list[int] = [sentinel_y]
        # Frames: (node, next-child-index).
        stack: list[tuple[Node, int]] = [(root, 0)]
        start = labeling.start(root)
        if start in has_incoming:
            z_stack.append(bisect_left(ys, start))
        while stack:
            node, child_idx = stack[-1]
            kids = forest.children[node]
            if child_idx < len(kids):
                stack[-1] = (node, child_idx + 1)
                child = kids[child_idx]
                child_start = labeling.start(child)
                if child_start in has_incoming:
                    z_stack.append(bisect_left(ys, child_start))
                stack.append((child, 0))
            else:
                stack.pop()
                interval = labeling.interval[node]
                x = bisect_left(xs, interval.start)
                y = bisect_left(xs, interval.end)
                labels[node] = (x, y, z_stack[-1])
                if interval.start in has_incoming:
                    z_stack.pop()
    return NonTreeLabels(labels=labels, sentinel_x=sentinel_x,
                         sentinel_y=sentinel_y)
