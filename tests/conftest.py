"""Shared fixtures: the paper's running example and assorted graphs.

``paper_graph`` reconstructs the example of Figures 1/2/5 exactly.  The
spanning tree (drawn solid in Figure 2) assigns these interval labels
when children are visited in insertion order:

    r=[0,12)
    ├─ a=[1,5)   ├─ c=[2,3)  w=[3,4)  d=[4,5)
    ├─ e=[5,6)
    ├─ v=[6,9)   ├─ f=[7,8)  g=[8,9)
    ├─ u=[9,11)  └─ h=[10,11)
    └─ i=[11,12)

plus the two non-tree edges of the figure: ``u -> v`` (recorded as the
link ``9 -> [6,9)``) and ``f -> a`` (recorded as ``7 -> [1,5)``).  The
paper derives from this the transitive link ``9 -> [1,5)``, the TLC
values ``N(9,3) = 1`` and ``N(11,3) = 0``, and the non-tree labels
``root=⟨0,−,−⟩``, ``u=⟨1,−,−⟩``, ``[8,9)=⟨1,1,1⟩``, ``w=⟨0,0,0⟩`` — all
asserted verbatim in tests/test_paper_example.py.
"""

from __future__ import annotations

import faulthandler
import os
import random

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.traversal import is_reachable_search

# Hang protection for the server/chaos suites without a pytest-timeout
# dependency: with REPRO_TEST_TIMEOUT=<seconds> set (as CI does), any
# single test exceeding the budget dumps every thread's traceback and
# aborts the run instead of wedging the job until the CI-level timeout.
_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or "0")


@pytest.fixture(autouse=_TEST_TIMEOUT > 0)
def _hang_guard():
    faulthandler.dump_traceback_later(_TEST_TIMEOUT, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()

# Node names of the paper example, in interval-label order.
PAPER_NODES = ["r", "a", "c", "w", "d", "e", "v", "f", "g", "u", "h", "i"]

PAPER_TREE_EDGES = [
    ("r", "a"), ("a", "c"), ("a", "w"), ("a", "d"),
    ("r", "e"),
    ("r", "v"), ("v", "f"), ("v", "g"),
    ("r", "u"), ("u", "h"),
    ("r", "i"),
]

PAPER_NONTREE_EDGES = [("u", "v"), ("f", "a")]

#: The interval labels Figure 2 shows, keyed by node name.
PAPER_INTERVALS = {
    "r": (0, 12), "a": (1, 5), "c": (2, 3), "w": (3, 4), "d": (4, 5),
    "e": (5, 6), "v": (6, 9), "f": (7, 8), "g": (8, 9),
    "u": (9, 11), "h": (10, 11), "i": (11, 12),
}


def make_paper_graph() -> DiGraph:
    """The example graph of Figures 1/2/5, edges in figure order."""
    graph = DiGraph()
    # Insertion order matters: the DFS must produce Figure 2's intervals.
    # Tree edges first (so the spanning DFS walks them), grouped per
    # parent in left-to-right figure order.
    edge_order = [
        ("r", "a"), ("a", "c"), ("a", "w"), ("a", "d"),
        ("r", "e"), ("r", "v"), ("v", "f"), ("v", "g"),
        ("r", "u"), ("u", "h"), ("r", "i"),
        ("u", "v"), ("f", "a"),
    ]
    for u, v in edge_order:
        graph.add_edge(u, v)
    return graph


@pytest.fixture
def paper_graph() -> DiGraph:
    """Fresh copy of the paper's example graph."""
    return make_paper_graph()


@pytest.fixture
def diamond() -> DiGraph:
    """The classic diamond DAG: a -> {b, c} -> d."""
    return DiGraph([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


@pytest.fixture
def two_cycle_graph() -> DiGraph:
    """Two 3-cycles bridged by one edge, plus a tail node."""
    return DiGraph([
        (0, 1), (1, 2), (2, 0),        # cycle A
        (3, 4), (4, 5), (5, 3),        # cycle B
        (2, 3),                        # bridge A -> B
        (5, 6),                        # tail
    ])


@pytest.fixture
def chain10() -> DiGraph:
    """A 10-node path 0 -> 1 -> ... -> 9."""
    return DiGraph([(i, i + 1) for i in range(9)])


def brute_force_pairs(graph: DiGraph) -> set[tuple]:
    """All reachable ordered pairs via per-source BFS (test oracle)."""
    pairs = set()
    for u in graph.nodes():
        for v in graph.nodes():
            if is_reachable_search(graph, u, v):
                pairs.add((u, v))
    return pairs


def sample_pairs(graph: DiGraph, count: int, seed: int = 0) -> list[tuple]:
    """Seeded random node pairs for spot-check comparisons."""
    nodes = list(graph.nodes())
    rng = random.Random(seed)
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]


def assert_index_matches_oracle(index, graph: DiGraph,
                                pairs=None) -> None:
    """Assert an index agrees with BFS on the given (or all) pairs."""
    if pairs is None:
        pairs = [(u, v) for u in graph.nodes() for v in graph.nodes()]
    for u, v in pairs:
        expected = is_reachable_search(graph, u, v)
        actual = index.reachable(u, v)
        assert actual == expected, (
            f"{type(index).__name__}: {u!r} -> {v!r}: "
            f"expected {expected}, got {actual}")


# -- broken index images ------------------------------------------------
#
# Each case breaks one label invariant of a small index's image and
# re-seals the sha256, so the bytes verify and only the load-time label
# check (repro.core.serialize._check_labels) can refuse them.  Shared by
# the three load paths' tests: file, /dev/shm and durable recovery.

def _cross_intervals(s):
    # The widest interval's first child ends one past its parent.
    widest = int(np.argmax(s["ends"] - s["starts"]))
    child = int(np.flatnonzero(s["starts"] == s["starts"][widest] + 1)[0])
    s["ends"][child] = s["ends"][widest] + 1


def _x_above_y(s):
    k = int(np.flatnonzero(s["label_y"] > 0)[0])
    s["label_x"][k] = s["label_y"][k]
    s["label_y"][k] -= 1


def _unsort_row(s):
    offsets, tails = s["row_offsets"], s["row_tails"]
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        if hi - lo >= 2 and tails[lo] < tails[lo + 1]:
            tails[lo], tails[lo + 1] = tails[lo + 1], tails[lo]
            return
    raise AssertionError("no row with two distinct tails")


#: case -> (scheme, mutation of the section views, invariant message).
BROKEN_IMAGES = {
    "crossing-interval": ("dual-i", _cross_intervals, "laminar"),
    "x-past-sentinel-row": (
        "dual-i", lambda s: s["label_x"].__setitem__(
            0, len(s["tlc_xs"]) + 1), "x <= y"),
    "x-above-y": ("dual-i", _x_above_y, "x <= y"),
    "nonzero-sentinel-cell": (
        "dual-i", lambda s: s["tlc_matrix"].__setitem__(
            (len(s["tlc_xs"]), 0), 1), "sentinel border"),
    "column-increases": (
        "dual-i", lambda s: s["tlc_matrix"].__setitem__(
            (1, 0), s["tlc_matrix"][0, 0] + 1), "non-increasing"),
    "unsorted-dual-ii-row": ("dual-ii", _unsort_row, "sorted"),
    "node-id-past-n": (
        "dual-i", lambda s: s["node_lookup"].__setitem__(
            0, len(s["starts"])), "component ids"),
}


def broken_image(case: str):
    """``(index, image bytes)``: ``index``'s image with invariant
    ``case`` of :data:`BROKEN_IMAGES` broken and the digest re-sealed."""
    from repro.core import serialize
    from repro.core.base import build_index
    from repro.graph.generators import random_dag

    scheme, mutate, _invariant = BROKEN_IMAGES[case]
    index = build_index(random_dag(40, 70, seed=0), scheme=scheme)
    image = bytearray(serialize.dumps_index(index))
    _scheme, sections = serialize._read_sections(image, "test")
    mutate(sections)
    serialize._seal(image)
    return index, bytes(image)
