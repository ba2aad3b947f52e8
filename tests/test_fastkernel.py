"""Differential harness for the buffer-reusing fast kernel.

Every seeded graph of the ``tests/test_differential.py`` families is
evaluated all-pairs through :class:`~repro.core.fastkernel.FastKernel`
and must match both the independent BFS/bitset closure and the
allocating ``query_pairs`` path bit for bit — for Dual-I and Dual-II
arrays, through ``query_ids`` and through split binary frames, and
(when the optional C extension is built) for the compiled path against
the pure-python one.  The remaining tests pin the kernel's contract:
reused answer buffers, clean ``QueryError`` on wire node ids outside
the index, the dense-lookup requirement, and the ``REPRO_FAST_KERNEL``
runtime gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import random_query_pairs
from repro.core.base import build_index
from repro.core.fastkernel import FastKernel, compiled_available
from repro.core.service import QueryService
from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph
from repro.server import binproto
from tests.test_differential import (
    CASES,
    FAMILIES,
    SEEDS,
    best_seconds,
    fig11_quick_graph,
    ground_truth,
)

SCHEMES = ("dual-i", "dual-ii")

needs_extension = pytest.mark.skipif(
    not compiled_available(),
    reason="repro.core._fastkernel is not built (REPRO_FAST_KERNEL=1 "
           "python setup.py build_ext --inplace)")


def _kernel_for(graph, scheme, **kwargs):
    index = build_index(graph, scheme=scheme)
    arrays = index.label_arrays()
    assert arrays is not None, scheme
    kernel = FastKernel(arrays, **kwargs)
    return index, arrays, kernel


def _all_pairs(graph):
    nodes = sorted(graph.nodes())
    pairs = [(u, v) for u in nodes for v in nodes]
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    return pairs, src, dst


# ---------------------------------------------------------------------
# differential: 51 seeded graphs x schemes, all pairs
# ---------------------------------------------------------------------

class TestDifferential:
    @pytest.mark.parametrize("family,seed", CASES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_kernel_matches_truth_and_query_pairs(self, family, seed,
                                                  scheme):
        graph = FAMILIES[family](seed)
        index, arrays, kernel = _kernel_for(graph, scheme,
                                            use_compiled=False)
        truth = ground_truth(graph)
        pairs, src, dst = _all_pairs(graph)
        got = kernel.query_ids(src, dst).tolist()
        assert got == [truth(u, v) for u, v in pairs], (family, seed)
        assert got == arrays.query_pairs(pairs).tolist(), (family, seed)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_run_frames_split_frames_match_query_pairs(self, family,
                                                       scheme):
        """A multi-frame flush (including an empty frame) answers each
        frame exactly as the allocating batch path."""
        graph = FAMILIES[family](1)
        index, arrays, kernel = _kernel_for(graph, scheme,
                                            use_compiled=False)
        pairs, _, _ = _all_pairs(graph)
        cut = len(pairs) // 3
        frames = [binproto.encode_pairs(pairs[:cut]), b"",
                  binproto.encode_pairs(pairs[cut:])]
        bitmaps, total, positives = kernel.run_frames(frames)
        assert total == len(pairs)
        expected = arrays.query_pairs(pairs).tolist()
        assert positives == sum(expected)
        assert bitmaps[1] == b""
        got = (binproto.unpack_bitmap(cut, bitmaps[0])
               + binproto.unpack_bitmap(len(pairs) - cut, bitmaps[2]))
        assert got == expected

    @needs_extension
    @pytest.mark.parametrize("family,seed", CASES)
    def test_compiled_matches_pure_python(self, family, seed):
        graph = FAMILIES[family](seed)
        index, arrays, pure = _kernel_for(graph, "dual-i",
                                          use_compiled=False)
        compiled = FastKernel(arrays, use_compiled=True)
        assert compiled.mode == "compiled" and pure.mode == "inplace"
        truth = ground_truth(graph)
        pairs, src, dst = _all_pairs(graph)
        want = [truth(u, v) for u, v in pairs]
        assert pure.query_ids(src, dst).tolist() == want, (family, seed)
        assert compiled.query_ids(src, dst).tolist() == want, \
            (family, seed)

    @needs_extension
    def test_compiled_run_frames_bitmaps_identical(self):
        graph = FAMILIES["cyclic-gnm"](3)
        index, arrays, pure = _kernel_for(graph, "dual-i",
                                          use_compiled=False)
        compiled = FastKernel(arrays, use_compiled=True)
        pairs, _, _ = _all_pairs(graph)
        payload = binproto.encode_pairs(pairs)
        assert pure.run_frames([payload]) \
            == compiled.run_frames([payload])


# ---------------------------------------------------------------------
# the Dual-II rank path
# ---------------------------------------------------------------------

class TestRankMode:
    def test_dual_ii_arrays_select_the_rank_path(self):
        graph = FAMILIES["cyclic-gnm"](2)
        index, arrays, kernel = _kernel_for(graph, "dual-ii",
                                            use_compiled=False)
        assert kernel.mode == "rank"
        assert index.t > 0  # the search tree actually gets probed
        pairs, src, dst = _all_pairs(graph)
        assert kernel.query_ids(src, dst).tolist() \
            == arrays.query_pairs(pairs).tolist()

    def test_rank_path_with_empty_search_tree(self):
        """A pure tree has t == 0 — the rank path must answer from
        interval containment alone without touching the (empty)
        search tree."""
        graph = FAMILIES["fanout9-tree"](1)
        index, arrays, kernel = _kernel_for(graph, "dual-ii",
                                            use_compiled=False)
        assert index.t == 0
        assert kernel.mode == "rank"
        truth = ground_truth(graph)
        pairs, src, dst = _all_pairs(graph)
        assert kernel.query_ids(src, dst).tolist() \
            == [truth(u, v) for u, v in pairs]

    def test_rank_scratch_is_reused_across_calls(self):
        graph = FAMILIES["sparse-dag"](3)
        _, arrays, kernel = _kernel_for(graph, "dual-ii",
                                        use_compiled=False)
        probes = kernel._scratch["p"]
        pairs, src, dst = _all_pairs(graph)
        want = arrays.query_pairs(pairs).tolist()
        for _ in range(3):
            assert kernel.query_ids(src, dst).tolist() == want
        assert kernel._scratch["p"] is probes


# ---------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------

class TestContract:
    def test_answer_buffer_is_reused(self):
        graph = FAMILIES["sparse-dag"](0)
        _, _, kernel = _kernel_for(graph, "dual-i", use_compiled=False)
        pairs, src, dst = _all_pairs(graph)
        first = kernel.query_ids(src, dst)
        stable = first.copy()
        second = kernel.query_ids(dst, src)
        assert first is second or first.base is second.base
        # The view from the first call now shows the second call's
        # answers — callers must copy, exactly as documented.
        assert np.array_equal(first, second)
        assert np.array_equal(stable,
                              kernel.query_ids(src, dst).copy()) is True

    @pytest.mark.parametrize("bad", [10**6, -1])
    def test_out_of_range_ids_raise_query_error(self, bad):
        graph = FAMILIES["sparse-dag"](0)
        _, _, kernel = _kernel_for(graph, "dual-i", use_compiled=False)
        nodes = sorted(graph.nodes())
        with pytest.raises(QueryError):
            kernel.query_ids(np.array([nodes[0], bad]),
                             np.array([nodes[1], nodes[1]]))
        # The kernel survives the error and keeps answering.
        truth = ground_truth(graph)
        got = kernel.query_ids(np.array([nodes[0]]),
                               np.array([nodes[1]]))
        assert got.tolist() == [truth(nodes[0], nodes[1])]

    def test_zero_queries(self):
        graph = FAMILIES["sparse-dag"](0)
        _, _, kernel = _kernel_for(graph, "dual-i", use_compiled=False)
        assert kernel.query_ids(np.zeros(0, dtype=np.int64),
                                np.zeros(0, dtype=np.int64)).size == 0
        assert kernel.run_frames([b""]) == ([b""], 0, 0)

    def test_from_arrays_rejects_sparse_node_space(self):
        graph = DiGraph()
        graph.add_edge("a", "b")  # non-integer node names
        index = build_index(graph, scheme="dual-i")
        arrays = index.label_arrays()
        assert arrays is not None
        assert arrays.dense_lookup() is None
        assert FastKernel.from_arrays(arrays) is None
        with pytest.raises(ValueError):
            FastKernel(arrays)

    def test_env_gate_disables_compiled_auto_selection(self,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_FAST_KERNEL", "0")
        graph = FAMILIES["sparse-dag"](0)
        _, _, kernel = _kernel_for(graph, "dual-i")
        assert kernel.mode == "inplace"

    def test_use_compiled_requires_extension_or_dual_i(self):
        graph = FAMILIES["sparse-dag"](0)
        index = build_index(graph, scheme="dual-ii")
        arrays = index.label_arrays()
        with pytest.raises(RuntimeError):
            FastKernel(arrays, use_compiled=True)

    def test_capacity_growth_preserves_answers(self):
        graph = FAMILIES["fanout9-tree"](2)
        index, arrays, kernel = _kernel_for(graph, "dual-i",
                                            capacity=4,
                                            use_compiled=False)
        pairs, src, dst = _all_pairs(graph)  # far beyond capacity 4
        assert kernel.query_ids(src, dst).tolist() \
            == arrays.query_pairs(pairs).tolist()


# ---------------------------------------------------------------------
# the service-level frame path
# ---------------------------------------------------------------------

class TestServiceFrames:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_query_frames_matches_query_batch(self, scheme):
        graph = FAMILIES["cyclic-gnm"](5)
        with QueryService(build_index(graph, scheme=scheme)) as service:
            pairs, _, _ = _all_pairs(graph)
            expected = service.query_batch(pairs)
            bitmaps = service.query_frames(
                [binproto.encode_pairs(pairs)])
            got = binproto.unpack_bitmap(len(pairs), bitmaps[0])
            assert got == expected
            assert service.fast_kernel() is not None

    def test_query_frames_fallback_without_kernel(self):
        """A service whose arrays cannot host a kernel (sparse node
        space) still answers frames — via the decode fallback —
        so a binary connection never depends on kernel support."""
        graph = DiGraph()
        graph.add_edge(7, 9)
        graph.add_edge(9, 1_000_003)  # forces a sparse node space
        with QueryService(build_index(graph, scheme="dual-i")) as service:
            assert service.fast_kernel() is None
            pairs = [(7, 9), (9, 7), (7, 1_000_003)]
            bitmaps = service.query_frames(
                [binproto.encode_pairs(pairs)])
            assert binproto.unpack_bitmap(3, bitmaps[0]) \
                == service.query_batch(pairs)


def test_pure_kernel_speedup_over_batched_numpy():
    """CI gate: on the paper's 100k-pair workload, the pure-python
    buffer path answers packed wire frames at least as fast as the
    allocating ``reachable_many`` batch path it replaced."""
    graph = fig11_quick_graph()
    index = build_index(graph, scheme="dual-i")
    pairs = random_query_pairs(graph, 100_000, seed=601)
    payload = binproto.encode_pairs(pairs)
    kernel = FastKernel(index.label_arrays(), capacity=len(pairs),
                        use_compiled=False)

    # The answer check doubles as both paths' warm-up.
    bitmaps, total, _ = kernel.run_frames([payload])
    assert binproto.unpack_bitmap(total, bitmaps[0]) == [
        bool(answer) for answer in index.reachable_many(pairs)]
    fast_seconds = best_seconds(lambda: kernel.run_frames([payload]), 5)
    batched_seconds = best_seconds(lambda: index.reachable_many(pairs), 5)
    speedup = batched_seconds / fast_seconds
    assert speedup >= 1.0, (
        f"fast buffer {fast_seconds * 1e3:.1f} ms vs batched "
        f"{batched_seconds * 1e3:.1f} ms = {speedup:.2f}x (need >= 1x)")
