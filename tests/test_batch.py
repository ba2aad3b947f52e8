"""Unit tests for vectorised batch queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import build_index
from repro.core.batch import reachable_batch
from repro.core.dual_i import DualIIndex
from repro.core.service import QueryService
from repro.exceptions import QueryError
from repro.graph.generators import gnm_random_digraph, single_rooted_dag
from tests.conftest import sample_pairs


class TestQueryPairs:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_queries(self, seed):
        g = gnm_random_digraph(60, 150, seed=seed)
        index = DualIIndex.build(g)
        pairs = sample_pairs(g, 500, seed)
        expected = [index.reachable(u, v) for u, v in pairs]
        assert reachable_batch(index, pairs) == expected

    def test_empty_batch(self, diamond):
        index = DualIIndex.build(diamond)
        assert reachable_batch(index, []) == []

    def test_unknown_node_raises(self, diamond):
        index = DualIIndex.build(diamond)
        with pytest.raises(QueryError):
            reachable_batch(index, [("a", "ghost")])

    def test_querier_reusable(self, diamond):
        arrays = DualIIndex.build(diamond).label_arrays()
        first = arrays.query_pairs([("a", "d")])
        second = arrays.query_pairs([("d", "a"), ("a", "a")])
        assert first.tolist() == [True]
        assert second.tolist() == [False, True]


class TestReachabilityMatrix:
    def test_matches_scalar_cross_product(self):
        g = single_rooted_dag(80, 115, max_fanout=4, seed=1)
        index = DualIIndex.build(g)
        sources = list(range(0, 80, 7))
        targets = list(range(0, 80, 5))
        matrix = QueryService(index).query_matrix(sources, targets)
        assert matrix.shape == (len(sources), len(targets))
        for i, u in enumerate(sources):
            for j, v in enumerate(targets):
                assert bool(matrix[i, j]) == index.reachable(u, v)

    def test_matrix_dtype(self, diamond):
        service = QueryService(DualIIndex.build(diamond))
        matrix = service.query_matrix(["a"], ["d", "a"])
        assert matrix.dtype == np.bool_
        assert matrix.tolist() == [[True, True]]


class TestCyclicGraphs:
    def test_scc_members_vectorised(self, two_cycle_graph):
        index = DualIIndex.build(two_cycle_graph)
        pairs = [(0, 2), (2, 0), (0, 6), (6, 0), (4, 4)]
        assert reachable_batch(index, pairs) == [
            True, True, True, False, True]


class TestPerformanceShape:
    def test_batch_not_slower_than_scalar(self):
        """Sanity: the vectorised path beats the scalar loop on a large
        batch (allowing generous slack for CI noise).

        Both paths are warmed up first (the first vectorised call pays
        one-off ufunc/allocator setup) and the vectorised side keeps
        its best of three runs — a single scheduler hiccup on a busy
        CI box must not fail a shape assertion that is really about
        asymptotics, not microseconds.
        """
        import time

        g = single_rooted_dag(2000, 2600, max_fanout=5, seed=2)
        index = DualIIndex.build(g)
        pairs = sample_pairs(g, 50_000, 3)

        arrays = index.label_arrays()
        sources = arrays.components_of([u for u, _ in pairs])
        targets = arrays.components_of([v for _, v in pairs])

        vector_answers = arrays.query_components(sources, targets)

        vector_seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            vector_answers = arrays.query_components(sources, targets)
            vector_seconds = min(vector_seconds,
                                 time.perf_counter() - start)

        sample = pairs[:512]  # warm the scalar path's caches too
        [index.reachable(u, v) for u, v in sample]
        start = time.perf_counter()
        scalar_answers = [index.reachable(u, v) for u, v in pairs]
        scalar_seconds = time.perf_counter() - start

        assert vector_answers.tolist() == scalar_answers
        assert vector_seconds < scalar_seconds * 1.5


class TestBatchBackends:
    @pytest.mark.parametrize("backend", ["array", "packed", "bitpacked"])
    def test_batch_over_every_matrix_backend(self, backend):
        g = gnm_random_digraph(40, 110, seed=11)
        index = DualIIndex.build(g, matrix_backend=backend)
        pairs = sample_pairs(g, 300, 11)
        expected = [index.reachable(u, v) for u, v in pairs]
        assert reachable_batch(index, pairs) == expected

    @pytest.mark.parametrize("scheme",
                             ["dual-i", "dual-ii", "closure", "interval"])
    def test_querier_over_every_kernel_scheme(self, scheme):
        """The label-array kernel works on every scheme exposing one."""
        g = gnm_random_digraph(50, 120, seed=4)
        index = build_index(g, scheme=scheme)
        pairs = sample_pairs(g, 400, 4)
        expected = [index.reachable(u, v) for u, v in pairs]
        assert index.label_arrays().query_pairs(pairs).tolist() \
            == expected

    @pytest.mark.parametrize("scheme", ["2hop", "online-bfs", "grail"])
    def test_kernel_less_scheme_falls_back_to_scalar(self, scheme):
        g = gnm_random_digraph(20, 40, seed=1)
        index = build_index(g, scheme=scheme)
        assert index.label_arrays() is None
        # The one-shot helper transparently takes the scalar loop.
        pairs = sample_pairs(g, 50, 2)
        expected = [index.reachable(u, v) for u, v in pairs]
        assert reachable_batch(index, pairs) == expected


class TestPublicSurface:
    def test_no_private_attribute_access(self):
        """Regression: the batch layer must rely only on the public
        ``label_arrays()`` protocol — no ``index._foo`` reaches into a
        scheme's internals (the pre-refactor implementation did)."""
        import inspect
        import re

        import repro.core.batch as batch_module

        source = inspect.getsource(batch_module)
        violations = re.findall(
            r"\b(?:index|self\.index)\._\w+|\barrays\._\w+", source)
        assert violations == []

    def test_matrix_unknown_node_raises(self, diamond):
        service = QueryService(DualIIndex.build(diamond))
        with pytest.raises(QueryError):
            service.query_matrix(["a"], ["ghost"])
        with pytest.raises(QueryError):
            service.query_matrix(["ghost"], ["a"])

    def test_label_arrays_cached_per_index(self, diamond):
        index = DualIIndex.build(diamond)
        assert index.label_arrays() is index.label_arrays()
