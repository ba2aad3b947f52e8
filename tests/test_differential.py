"""Differential harness: every scheme versus BFS ground truth.

Seeded graph families × every registered scheme, cross-checking the
scalar ``reachable``, the batched ``reachable_many``, and (where label
arrays exist) the :meth:`~repro.core.base.LabelArrays.query_pairs` kernel
against
the reflexive transitive closure computed independently by
:func:`repro.graph.closure.transitive_closure_bitsets`.

A second axis cross-checks the two construction backends: every seeded
graph is built with ``backend="python"`` and ``backend="fast"`` and the
interval labels, link tables, and query answers must match bit for bit
(the fast backend's contract — see ``docs/API.md``).

On a mismatch the harness shrinks the graph with a greedy edge-removal
minimiser and reports the family, seed, scheme, offending pair, and the
minimal edge list that still reproduces the disagreement — everything
needed to paste into a regression test.
"""

from __future__ import annotations

import pytest

from repro.core.base import available_schemes, build_index
from repro.core.pipeline import run_pipeline
from repro.graph.closure import transitive_closure_bitsets
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    gnm_random_digraph,
    random_dag,
    random_tree,
)

SEEDS = range(17)

#: family name -> seeded generator of a small adversarial graph.
FAMILIES = {
    # Sparse DAGs around the paper's m ≈ 1.3 n regime.
    "sparse-dag": lambda seed: random_dag(40, 52, seed=seed),
    # Cyclic digraphs: exercises SCC condensation in every scheme.
    "cyclic-gnm": lambda seed: gnm_random_digraph(36, 58, seed=seed),
    # High-fanout trees: interval-only reachability, zero non-tree edges.
    "fanout9-tree": lambda seed: random_tree(45, max_fanout=9, seed=seed),
}

CASES = [(family, seed) for family in FAMILIES for seed in SEEDS]
assert len(CASES) >= 50  # the harness's advertised coverage floor


def ground_truth(graph: DiGraph):
    """``truth(u, v)`` from an independent BFS/bitset closure."""
    desc, index = transitive_closure_bitsets(graph)

    def truth(u, v):
        return bool((desc[index[u]] >> index[v]) & 1)

    return truth


def _greedy_shrink(graph: DiGraph, disagreement):
    """Greedy edge-removal shrink driven by a disagreement predicate.

    ``disagreement(edges)`` rebuilds a candidate graph from ``edges``
    (plus ``graph``'s isolated nodes) and returns a truthy witness while
    the failure still reproduces, or ``None`` once it vanishes.
    Repeatedly drops any edge whose removal keeps the witness alive;
    returns the shrunken edge list and the final witness.
    """
    edges = list(graph.edges())
    witness = disagreement(edges)
    if witness is None:  # nothing disagrees; nothing to shrink
        return edges, None
    shrinking = True
    while shrinking:
        shrinking = False
        for i in range(len(edges) - 1, -1, -1):
            trial = edges[:i] + edges[i + 1:]
            trial_witness = disagreement(trial)
            if trial_witness is not None:
                edges, witness = trial, trial_witness
                shrinking = True
    return edges, witness


def minimise_failure(graph: DiGraph, scheme: str, options: dict):
    """Shrink a scheme-vs-truth disagreement; the witness is the first
    offending ``(u, v)`` pair."""

    def disagreement(edges):
        candidate = DiGraph(edges)
        for node in graph.nodes():
            candidate.add_node(node)
        truth = ground_truth(candidate)
        index = build_index(candidate, scheme=scheme, **options)
        for u in candidate.nodes():
            for v in candidate.nodes():
                if index.reachable(u, v) != truth(u, v):
                    return (u, v)
        return None

    return _greedy_shrink(graph, disagreement)


@pytest.mark.parametrize("scheme", sorted(available_schemes()))
@pytest.mark.parametrize("family,seed", CASES,
                         ids=[f"{f}-s{s}" for f, s in CASES])
def test_scheme_matches_bfs_ground_truth(family, seed, scheme) -> None:
    graph = FAMILIES[family](seed)
    truth = ground_truth(graph)
    options = {"seed": 7} if scheme == "grail" else {}
    index = build_index(graph, scheme=scheme, **options)
    nodes = list(graph.nodes())
    pairs = [(u, v) for u in nodes for v in nodes]
    expected = [truth(u, v) for u, v in pairs]

    failures = []
    scalar = [index.reachable(u, v) for u, v in pairs]
    if scalar != expected:
        failures.append("reachable")
    many = index.reachable_many(pairs)
    if list(many) != expected:
        failures.append("reachable_many")
    arrays = index.label_arrays()
    if arrays is not None:
        kernel = arrays.query_pairs(pairs).tolist()
        if kernel != expected:
            failures.append("LabelArrays.query_pairs")

    if failures:
        edges, pair = minimise_failure(graph, scheme, options)
        pytest.fail(
            f"{scheme} disagrees with BFS ground truth via "
            f"{'/'.join(failures)} on family={family} seed={seed}; "
            f"minimised reproducer: pair={pair} edges={edges}")


# ---------------------------------------------------------------------
# backend-equivalence axis: python vs fast construction
# ---------------------------------------------------------------------

def _pipeline_fingerprint(graph: DiGraph, use_meg: bool, backend: str):
    """Everything the fast backend promises to reproduce bit for bit."""
    pipeline = run_pipeline(graph, use_meg=use_meg, backend=backend)
    triples = lambda table: [(link.tail, link.head_start, link.head_end)
                             for link in table.links]
    return {
        "interval labels": {node: (iv.start, iv.end) for node, iv
                            in pipeline.labeling.interval.items()},
        "base link table": triples(pipeline.base_table),
        "transitive link table": triples(pipeline.transitive_table),
    }


def backend_disagreement(graph: DiGraph, use_meg: bool):
    """Name of the first artefact where the backends diverge, or
    ``None`` when ``python`` and ``fast`` agree on ``graph``."""
    reference = _pipeline_fingerprint(graph, use_meg, "python")
    fast = _pipeline_fingerprint(graph, use_meg, "fast")
    for key, expected in reference.items():
        if fast[key] != expected:
            return key
    nodes = list(graph.nodes())
    pairs = [(u, v) for u in nodes for v in nodes]
    for scheme in ("dual-i", "dual-ii"):
        answers = [list(build_index(graph, scheme=scheme, use_meg=use_meg,
                                    backend=backend).reachable_many(pairs))
                   for backend in ("python", "fast")]
        if answers[0] != answers[1]:
            return f"{scheme} query answers"
    return None


def minimise_backend_failure(graph: DiGraph, use_meg: bool):
    """Shrink a backend disagreement; the witness names the artefact."""

    def disagreement(edges):
        candidate = DiGraph(edges)
        for node in graph.nodes():
            candidate.add_node(node)
        return backend_disagreement(candidate, use_meg)

    return _greedy_shrink(graph, disagreement)


@pytest.mark.parametrize("use_meg", [True, False], ids=["meg", "no-meg"])
@pytest.mark.parametrize("family,seed", CASES,
                         ids=[f"{f}-s{s}" for f, s in CASES])
def test_backend_equivalence(family, seed, use_meg) -> None:
    graph = FAMILIES[family](seed)
    witness = backend_disagreement(graph, use_meg)
    if witness is not None:
        edges, shrunk = minimise_backend_failure(graph, use_meg)
        pytest.fail(
            f"fast backend diverges from python on {shrunk or witness} "
            f"(family={family} seed={seed} use_meg={use_meg}); "
            f"minimised reproducer: edges={edges}")


def test_minimiser_shrinks_and_reports(monkeypatch) -> None:
    """The minimiser itself: a deliberately broken scheme shrinks to a
    small reproducer naming an offending pair."""
    graph = random_dag(12, 18, seed=3)

    class _Lying:
        def reachable(self, u, v):
            return False  # denies even u == v reflexivity

    monkeypatch.setitem(globals(), "build_index",
                        lambda g, scheme=None, **kw: _Lying())
    edges, pair = minimise_failure(graph, "dual-i", {})
    assert pair is not None
    assert pair[0] == pair[1]  # reflexive pairs survive any edge removal
    assert edges == []  # ... so the shrink removes every edge
