"""Seeded benchmark inputs: graphs, query pairs and their true answers.

Everything here is owned by the benchmark, so a change to the
program's own generators or query helpers cannot move the inputs.
The graph generator follows the paper's single-rooted DAG recipe
(Section 6.2): a breadth-first spanning tree with at most
``max_fanout`` children per node, then extra edges that only point
"down or right", which keeps the graph acyclic.  Node ids are dense
integers ``0..n-1``, as the binary protocol requires.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class Graph:
    """A generated DAG: ``succ[u]`` lists the successors of node ``u``."""

    n: int
    succ: list
    edges: list

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def t(self) -> int:
        """Non-tree edges: what the Dual-I TLC matrix is sized by."""
        return self.m - (self.n - 1)

    def write_edge_list(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(f"{u} {v}\n" for u, v in self.edges))


def single_rooted_dag(n: int, m: int, max_fanout: int,
                      rng: random.Random) -> Graph:
    """The paper's generator; node 0 is the root."""
    if n < 2 or m < n - 1:
        raise ValueError(f"need n >= 2 and m >= n - 1, got n={n} m={m}")
    succ: list[list[int]] = [[] for _ in range(n)]
    edges: list[tuple[int, int]] = []
    level = [0] * n
    pos = [0] * n
    level_sizes = [1]
    frontier = [0]
    nxt_id = 1
    while nxt_id < n:
        nxt: list[int] = []
        for parent in frontier:
            for _ in range(rng.randint(1, max_fanout)):
                if nxt_id >= n:
                    break
                child = nxt_id
                nxt_id += 1
                succ[parent].append(child)
                edges.append((parent, child))
                depth = level[parent] + 1
                if depth == len(level_sizes):
                    level_sizes.append(0)
                level[child] = depth
                pos[child] = level_sizes[depth]
                level_sizes[depth] += 1
                nxt.append(child)
            if nxt_id >= n:
                break
        frontier = nxt
    present = set(edges)
    extra = m - (n - 1)
    while extra:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in present:
            continue
        if (level[u], pos[u]) >= (level[v], pos[v]):
            continue
        present.add((u, v))
        succ[u].append(v)
        edges.append((u, v))
        extra -= 1
    return Graph(n=n, succ=succ, edges=edges)


def descendants(graph: Graph, source: int) -> bytearray:
    """Reachability from ``source`` by plain DFS (the oracle).

    ``out[v]`` is 1 when ``source`` reaches ``v``; a node reaches
    itself.
    """
    seen = bytearray(graph.n)
    seen[source] = 1
    stack = [source]
    succ = graph.succ
    while stack:
        for w in succ[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    return seen


@dataclass
class Pairs:
    """Query pairs with their expected answers, aligned."""

    pairs: list
    truth: list

    @property
    def positive_share(self) -> float:
        return sum(self.truth) / len(self.truth)


def mixed_pairs(graph: Graph, count: int, rng: random.Random, *,
                sources: int) -> Pairs:
    """``count`` pairs, half reached by a forward walk, half uniform.

    Sources come from a pool of ``sources`` distinct nodes so the
    oracle runs one DFS per pool node; targets range over the whole
    graph, so the target side of the labels is touched at random.
    The walk half is positive by construction; the uniform half is
    mostly negative on these sparse graphs.  Every answer, walk or
    not, comes from the DFS oracle.
    """
    walkable = [u for u in range(graph.n) if graph.succ[u]]
    pool = rng.sample(walkable, min(sources, len(walkable)))
    pairs: list[tuple[int, int]] = []
    for i in range(count):
        u = pool[rng.randrange(len(pool))]
        if i % 2 == 0:
            v = u
            for _ in range(rng.randint(1, 64)):
                nexts = graph.succ[v]
                if not nexts:
                    break
                v = nexts[rng.randrange(len(nexts))]
        else:
            v = rng.randrange(graph.n)
        pairs.append((u, v))
    rng.shuffle(pairs)
    by_source: dict[int, list[int]] = {}
    for i, (u, _) in enumerate(pairs):
        by_source.setdefault(u, []).append(i)
    truth = [False] * count
    for u, slots in by_source.items():
        reach = descendants(graph, u)
        for i in slots:
            truth[i] = bool(reach[pairs[i][1]])
    return Pairs(pairs=pairs, truth=truth)
