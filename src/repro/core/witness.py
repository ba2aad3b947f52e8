"""Witness-path reconstruction from a Dual-I index.

A reachability index answers *whether* ``u ⇝ v``; applications (XML
provenance, pathway explanation, debugging) often need an actual path
as evidence.  This module reconstructs one from the dual-labeling
artefacts without falling back to blind graph search:

* **tree segments** come straight from the spanning forest's parent
  pointers (``v``'s ancestor chain truncated at the subtree root);
* **non-tree hops** are found by searching the *base* link digraph —
  the ``t``-node graph whose vertices are non-tree edges and whose
  arcs follow Lemma 1's chaining rule (``tail(e') ∈ head-interval(e)``)
  — which is tiny compared to the input graph (``t ≪ n``).

The returned witness is a list of original-graph nodes; within an SCC
the condensation hides the exact intra-component hops, so consecutive
witness nodes are connected by an edge *or* are members of one SCC
(:func:`expand_witness` upgrades the latter into explicit edges).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Optional

from repro.core.dual_i import DualIIndex
from repro.exceptions import IndexBuildError, QueryError
from repro.graph.digraph import DiGraph, Node

__all__ = ["witness_path", "expand_witness", "verify_witness",
           "Explanation", "explain_query"]


def _component_tree_path(index: DualIIndex, from_cid: int,
                         to_cid: int) -> list[int]:
    """Tree path between two components, ``from`` an ancestor of ``to``."""
    forest = index.pipeline.forest
    chain = [to_cid]
    node = to_cid
    while node != from_cid:
        node = forest.parent[node]
        chain.append(node)
    chain.reverse()
    return chain


def witness_path(index: DualIIndex, u: Node, v: Node
                 ) -> Optional[list[Node]]:
    """A path of component representatives witnessing ``u ⇝ v``.

    Returns ``None`` when ``v`` is unreachable.  The path is expressed
    over *original* nodes — one representative per visited component —
    with every consecutive pair either joined by a graph edge or
    co-members of an SCC (see :func:`expand_witness`).

    Requires an index built with its pipeline artefacts (a deserialised
    index raises, via :attr:`DualIIndex.pipeline`).
    """
    pipeline = index.pipeline
    component_of = pipeline.condensation.component_of
    try:
        cu = component_of[u]
        cv = component_of[v]
    except KeyError as exc:
        raise QueryError(exc.args[0]) from None

    members = pipeline.condensation.members

    if cu == cv:
        return [u] if u == v else [u, v]

    labeling = pipeline.labeling
    iu = labeling.interval[cu]
    iv = labeling.interval[cv]
    if iu.start <= iv.start < iu.end:
        # Pure tree path.
        chain = _component_tree_path(index, cu, cv)
        return ([u] + [members[c][0] for c in chain[1:-1]] + [v])

    if not index.reachable(u, v):
        return None

    # Non-tree route: BFS over the base link digraph from links whose
    # tail lies in cu's subtree, looking for a link whose head interval
    # contains cv's start.
    base = pipeline.base_table
    links = base.links
    tails_sorted = sorted((link.tail, idx)
                          for idx, link in enumerate(links))
    tail_values = [t for t, _ in tails_sorted]

    def links_with_tail_in(lo: int, hi: int) -> list[int]:
        a = bisect_left(tail_values, lo)
        b = bisect_left(tail_values, hi)
        return [tails_sorted[pos][1] for pos in range(a, b)]

    start_links = links_with_tail_in(iu.start, iu.end)
    parent_link: dict[int, Optional[int]] = {
        idx: None for idx in start_links}
    queue = deque(start_links)
    goal = None
    while queue:
        idx = queue.popleft()
        link = links[idx]
        if link.head_start <= iv.start < link.head_end:
            goal = idx
            break
        for nxt in links_with_tail_in(link.head_start, link.head_end):
            if nxt not in parent_link:
                parent_link[nxt] = idx
                queue.append(nxt)
    if goal is None:  # pragma: no cover - reachable() said yes
        raise AssertionError("index and link search disagree")

    # Unwind the link chain: source-side tails and head components.
    chain_links = []
    idx: Optional[int] = goal
    while idx is not None:
        chain_links.append(links[idx])
        idx = parent_link[idx]
    chain_links.reverse()

    node_at_start = labeling.node_at_start
    path_components: list[int] = []
    cursor = cu
    for link in chain_links:
        tail_cid = node_at_start[link.tail]
        head_cid = node_at_start[link.head_start]
        path_components.extend(
            _component_tree_path(index, cursor, tail_cid))
        path_components.append(head_cid)
        cursor = head_cid
    path_components.extend(_component_tree_path(index, cursor, cv)[1:])

    # De-duplicate consecutive repeats (tail == cursor cases).
    deduped: list[int] = []
    for cid in path_components:
        if not deduped or deduped[-1] != cid:
            deduped.append(cid)

    witness = [members[c][0] for c in deduped]
    witness[0] = u
    witness[-1] = v
    return witness


from dataclasses import dataclass, field


@dataclass(frozen=True)
class Explanation:
    """A structured account of how a Dual-I query was decided.

    ``kind`` is one of:

    * ``"same-component"`` — both vertices share an SCC;
    * ``"tree"`` — decided by interval containment alone;
    * ``"non-tree"`` — decided by the TLC test (Theorem 3's second
      clause); ``tlc_difference`` carries the positive
      ``N[x₁,z₂] − N[y₁,z₂]`` value and ``witness`` a concrete path;
    * ``"unreachable"`` — both clauses failed.
    """

    kind: str
    source: Node
    target: Node
    tlc_difference: int = 0
    witness: list[Node] = field(default_factory=list)

    @property
    def reachable(self) -> bool:
        """The query's boolean answer."""
        return self.kind != "unreachable"

    def __str__(self) -> str:
        head = f"{self.source!r} -> {self.target!r}: "
        if self.kind == "same-component":
            return head + "reachable (same strongly connected component)"
        if self.kind == "tree":
            return head + "reachable via spanning-tree containment"
        if self.kind == "non-tree":
            route = " -> ".join(repr(n) for n in self.witness)
            return (head + f"reachable via non-tree links "
                    f"(TLC difference {self.tlc_difference}; "
                    f"witness {route})")
        return head + "unreachable"


def explain_query(index: DualIIndex, u: Node, v: Node) -> Explanation:
    """Explain how ``index`` decides ``u ⇝ v`` (see :class:`Explanation`).

    Runs the same clauses as :meth:`DualIIndex.reachable` but reports
    *which* clause fired, with a witness path for the non-tree case.
    """
    component_of, starts, ends, xs, ys, zs, rows = index._scalar_labels()
    try:
        cu = component_of[u]
        cv = component_of[v]
    except KeyError as exc:
        raise QueryError(exc.args[0]) from None
    if cu == cv:
        return Explanation(kind="same-component", source=u, target=v)
    a2 = starts[cv]
    if starts[cu] <= a2 < ends[cu]:
        return Explanation(kind="tree", source=u, target=v)
    z2 = zs[cv]
    difference = rows[xs[cu]][z2] - rows[ys[cu]][z2]
    if difference > 0:
        # A deserialised index carries no pipeline artefacts, so the
        # witness is unavailable; the explanation still reports the
        # clause and the TLC difference.
        try:
            witness = witness_path(index, u, v) or []
        except IndexBuildError:
            witness = []
        return Explanation(kind="non-tree", source=u, target=v,
                           tlc_difference=difference,
                           witness=witness)
    return Explanation(kind="unreachable", source=u, target=v)


def expand_witness(graph: DiGraph, witness: list[Node]) -> list[Node]:
    """Expand a component-level witness into a true edge path.

    Consecutive witness nodes that are not joined by an edge must be in
    one SCC; a BFS inside the graph fills in the intra-component hops.
    """
    if len(witness) < 2:
        return list(witness)
    full: list[Node] = [witness[0]]
    for target in witness[1:]:
        source = full[-1]
        if graph.has_edge(source, target):
            full.append(target)
            continue
        # BFS for the shortest connecting path.
        parents: dict[Node, Node] = {source: source}
        queue = deque([source])
        while queue and target not in parents:
            node = queue.popleft()
            for succ in graph.successors(node):
                if succ not in parents:
                    parents[succ] = node
                    queue.append(succ)
        if target not in parents:
            raise QueryError(target)
        segment: list[Node] = []
        node = target
        while node != source:
            segment.append(node)
            node = parents[node]
        full.extend(reversed(segment))
    return full


def verify_witness(graph: DiGraph, witness: list[Node]) -> bool:
    """``True`` iff ``witness`` is a genuine edge path in ``graph``."""
    if not witness:
        return False
    if len(witness) == 1:
        return witness[0] in graph
    return all(graph.has_edge(a, b)
               for a, b in zip(witness, witness[1:]))
