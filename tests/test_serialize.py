"""Unit tests for Dual-I / Dual-II index serialisation (binary images)."""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.core import serialize
from repro.core.base import DenseComponentMap, build_index
from repro.core.dual_i import DualIIndex
from repro.core.dual_ii import DualIIIndex
from repro.core.fastkernel import FastKernel
from repro.core.serialize import (
    MAGIC,
    dumps_index,
    load_dual_index,
    loads_index,
    save_dual_index,
)
from repro.exceptions import (
    CorruptIndexError,
    IndexBuildError,
    QueryError,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_digraph
from tests.conftest import (
    BROKEN_IMAGES,
    broken_image,
    make_paper_graph,
    sample_pairs,
)


def _resealed(image: bytearray) -> bytes:
    serialize._seal(image)
    return bytes(image)


class TestRoundTrip:
    def test_paper_graph(self, tmp_path):
        graph = make_paper_graph()
        index = DualIIndex.build(graph, use_meg=False)
        path = tmp_path / "index.idx"
        save_dual_index(index, path)
        loaded = load_dual_index(path)
        for u in graph.nodes():
            for v in graph.nodes():
                assert loaded.reachable(u, v) == index.reachable(u, v)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, tmp_path, seed):
        graph = gnm_random_digraph(50, 130, seed=seed)
        index = DualIIndex.build(graph)
        path = tmp_path / "index.idx"
        save_dual_index(index, path)
        loaded = load_dual_index(path)
        for u, v in sample_pairs(graph, 400, seed):
            assert loaded.reachable(u, v) == index.reachable(u, v)

    def test_stats_survive(self, tmp_path):
        graph = gnm_random_digraph(40, 100, seed=1)
        index = DualIIndex.build(graph)
        path = tmp_path / "index.idx"
        save_dual_index(index, path)
        loaded = load_dual_index(path)
        original = index.stats()
        restored = loaded.stats()
        assert restored.num_nodes == original.num_nodes
        assert restored.t == original.t
        assert restored.transitive_links == original.transitive_links
        assert restored.space_bytes == original.space_bytes

    def test_int_and_str_nodes_distinct(self, tmp_path):
        graph = DiGraph([(1, "1"), ("1", 2)])
        index = DualIIndex.build(graph)
        path = tmp_path / "index.idx"
        save_dual_index(index, path)
        loaded = load_dual_index(path)
        assert loaded.reachable(1, 2)
        assert loaded.reachable("1", 2)
        assert not loaded.reachable(2, "1")

    def test_unknown_vertex_still_raises(self, tmp_path):
        index = DualIIndex.build(DiGraph([("a", "b")]))
        path = tmp_path / "index.idx"
        save_dual_index(index, path)
        with pytest.raises(QueryError):
            load_dual_index(path).reachable("a", "ghost")


class TestValidation:
    def test_non_scalar_nodes_rejected(self, tmp_path):
        graph = DiGraph([((1, 2), (3, 4))])  # tuple nodes
        index = DualIIndex.build(graph)
        with pytest.raises(IndexBuildError):
            save_dual_index(index, tmp_path / "index.idx")

    def test_unsupported_scheme_rejected(self, tmp_path, diamond):
        index = build_index(diamond, scheme="2hop")
        with pytest.raises(IndexBuildError):
            save_dual_index(index, tmp_path / "index.idx")

    def test_not_json(self, tmp_path):
        """A JSON document — the index format of older releases — is
        not an image; the error names the fix."""
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(IndexBuildError, match="repro-reach build"):
            load_dual_index(path)

    def test_wrong_format_marker(self, tmp_path, diamond):
        image = bytearray(dumps_index(DualIIndex.build(diamond)))
        image[:len(MAGIC)] = b"NOTANIDX"
        path = tmp_path / "bad.idx"
        path.write_bytes(bytes(image))
        with pytest.raises(IndexBuildError, match="not a repro index"):
            load_dual_index(path)

    def test_wrong_version(self, tmp_path, diamond):
        image = bytearray(dumps_index(DualIIndex.build(diamond)))
        struct.pack_into("<I", image, 40, 99)
        path = tmp_path / "index.idx"
        path.write_bytes(_resealed(image))
        with pytest.raises(IndexBuildError, match="version 99"):
            load_dual_index(path)

    def test_truncated_document(self, tmp_path, diamond):
        image = dumps_index(DualIIndex.build(diamond))
        path = tmp_path / "index.idx"
        for cut in (len(image) - 1, len(image) // 2, 20):
            path.write_bytes(image[:cut])
            with pytest.raises(CorruptIndexError, match="truncated"):
                load_dual_index(path)

    def test_parent_json_artifact_names_the_fix(self, tmp_path, diamond):
        path = tmp_path / "index.idx"
        path.write_text(json.dumps({"format": "repro-dual-i",
                                    "version": 1, "starts": [0]}))
        with pytest.raises(IndexBuildError) as info:
            load_dual_index(path)
        assert not isinstance(info.value, CorruptIndexError)
        assert "JSON" in str(info.value)
        assert "repro-reach build" in str(info.value)

    def test_pipeline_unavailable_after_load(self, tmp_path, diamond):
        path = tmp_path / "index.idx"
        save_dual_index(DualIIndex.build(diamond), path)
        loaded = load_dual_index(path)
        with pytest.raises(IndexBuildError):
            loaded.pipeline


class TestDualII:
    def test_paper_graph_round_trip(self, tmp_path):
        graph = make_paper_graph()
        index = DualIIIndex.build(graph, use_meg=False)
        path = tmp_path / "index.idx"
        save_dual_index(index, path)
        loaded = load_dual_index(path)
        for u in graph.nodes():
            for v in graph.nodes():
                assert loaded.reachable(u, v) == index.reachable(u, v)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, tmp_path, seed):
        graph = gnm_random_digraph(50, 130, seed=seed)
        index = DualIIIndex.build(graph)
        path = tmp_path / "index.idx"
        save_dual_index(index, path)
        loaded = load_dual_index(path)
        pairs = sample_pairs(graph, 400, seed)
        assert loaded.reachable_many(pairs) == \
            index.reachable_many(pairs)

    def test_scheme_tag_dispatches(self, tmp_path, diamond):
        """The scheme tag in the header picks the loader, and the two
        schemes loaded from disk agree on every answer."""
        paths = {}
        for scheme, cls in (("dual-i", DualIIndex),
                            ("dual-ii", DualIIIndex)):
            path = tmp_path / f"{scheme}.idx"
            save_dual_index(cls.build(diamond), path)
            header = path.read_bytes()[:64]
            assert header[56:64].rstrip(b"\0") == scheme.encode()
            paths[scheme] = path
        dual_i = load_dual_index(paths["dual-i"])
        dual_ii = load_dual_index(paths["dual-ii"])
        assert dual_i.stats().scheme == "dual-i"
        assert dual_ii.stats().scheme == "dual-ii"
        pairs = [(u, v) for u in diamond.nodes() for v in diamond.nodes()]
        assert dual_i.reachable_many(pairs) == \
            dual_ii.reachable_many(pairs)

    def test_stats_survive(self, tmp_path):
        graph = gnm_random_digraph(40, 100, seed=1)
        index = DualIIIndex.build(graph)
        path = tmp_path / "index.idx"
        save_dual_index(index, path)
        restored = load_dual_index(path).stats()
        original = index.stats()
        assert restored.num_nodes == original.num_nodes
        assert restored.t == original.t
        assert restored.space_bytes == original.space_bytes

    def test_pipeline_unavailable_after_load(self, tmp_path, diamond):
        path = tmp_path / "index.idx"
        save_dual_index(DualIIIndex.build(diamond), path)
        with pytest.raises(IndexBuildError):
            load_dual_index(path).pipeline


class TestBackendSerialization:
    @pytest.mark.parametrize("backend", ["packed", "bitpacked"])
    def test_packed_backends_round_trip(self, tmp_path, backend):
        graph = gnm_random_digraph(40, 110, seed=9)
        index = DualIIndex.build(graph, matrix_backend=backend)
        path = tmp_path / "index.idx"
        save_dual_index(index, path)
        loaded = load_dual_index(path)
        for u, v in sample_pairs(graph, 300, 9):
            assert loaded.reachable(u, v) == index.reachable(u, v)


class TestCrashSafety:
    """Atomic writes, checksums, and kill-during-save survival."""

    def test_no_tmp_sibling_after_clean_save(self, tmp_path, diamond):
        path = tmp_path / "index.idx"
        save_dual_index(DualIIndex.build(diamond), path)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_save_leaves_no_partial_file(self, tmp_path, diamond):
        # A non-serialisable node raises mid-document-build; an
        # unsupported index raises before any file I/O — neither may
        # leave a file (partial or otherwise) behind.
        index = build_index(diamond, scheme="2hop")
        path = tmp_path / "index.idx"
        with pytest.raises(IndexBuildError):
            save_dual_index(index, path)
        graph = DiGraph([(("tuple", "node"), "b")])
        with pytest.raises(IndexBuildError):
            save_dual_index(DualIIndex.build(graph), path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_previous_index(self, tmp_path, diamond):
        path = tmp_path / "index.idx"
        save_dual_index(DualIIndex.build(diamond), path)
        before = path.read_bytes()
        graph = DiGraph([(("tuple", "node"), "b")])
        with pytest.raises(IndexBuildError):
            save_dual_index(DualIIndex.build(graph), path)
        assert path.read_bytes() == before
        assert load_dual_index(path).reachable("a", "d")

    def test_document_carries_verified_checksum(self, tmp_path, diamond):
        path = tmp_path / "index.idx"
        save_dual_index(DualIIndex.build(diamond), path)
        image = path.read_bytes()
        assert image.startswith(MAGIC)
        assert image[8:40] == hashlib.sha256(image[40:]).digest()
        load_dual_index(path)  # verifies

    def test_bit_flip_raises_corrupt_index_error(self, tmp_path, diamond):
        index = DualIIndex.build(diamond)
        image = dumps_index(index)
        _scheme, sections = serialize._read_sections(image, "test")
        starts_at = (sections["starts"].ctypes.data
                     - np.frombuffer(image, np.uint8).ctypes.data)
        # Every byte after the digest is covered, padding included.
        for offset in (40, 64, starts_at, len(image) - 1):
            blob = bytearray(image)
            blob[offset] ^= 0x01
            path = tmp_path / "index.idx"
            path.write_bytes(bytes(blob))
            with pytest.raises(CorruptIndexError, match="checksum"):
                load_dual_index(path)

    def test_corrupt_error_is_an_index_build_error(self):
        # The server's reload path catches ReproError; corruption must
        # flow through the same degraded-mode handling.
        assert issubclass(CorruptIndexError, IndexBuildError)

    def test_garbage_bytes_raise_corrupt_index_error(self, tmp_path):
        path = tmp_path / "index.idx"
        path.write_bytes(b"\xff\xfe not an index")
        with pytest.raises(CorruptIndexError):
            load_dual_index(path)

    def test_structurally_broken_document_is_corrupt(self, tmp_path,
                                                     diamond):
        """A section table entry pointing past the end of the image is
        refused even when the digest verifies."""
        image = bytearray(dumps_index(DualIIndex.build(diamond)))
        # The first entry's offset field sits 48 bytes into the entry.
        struct.pack_into("<Q", image, 64 + 48, len(image))
        path = tmp_path / "index.idx"
        path.write_bytes(_resealed(image))
        with pytest.raises(CorruptIndexError, match="overruns"):
            load_dual_index(path)

    def test_kill_during_save_keeps_index_loadable(self, tmp_path):
        from repro.testing.faults import run_kill_during_save

        nodes, edges, seed = 60, 120, 3
        graph = gnm_random_digraph(nodes, edges, seed=seed)
        index = DualIIndex.build(graph)
        path = tmp_path / "killed.idx"
        save_dual_index(index, path)
        summary = run_kill_during_save(path, nodes=nodes, edges=edges,
                                       seed=seed, kills=3,
                                       delay_range=(0.0, 0.05))
        assert summary["kills"] == 3
        # The target file is never a truncated hybrid: it loads and
        # answers exactly like the in-process index.
        loaded = load_dual_index(path)
        for u, v in sample_pairs(graph, 200, seed):
            assert loaded.reachable(u, v) == index.reachable(u, v)


class TestImage:
    """What a loaded image is: columns viewed in place, packed cells,
    no per-node Python objects."""

    def test_sections_are_aligned(self, diamond):
        image = dumps_index(DualIIndex.build(diamond))
        _scheme, sections = serialize._read_sections(image, "test")
        base = np.frombuffer(image, np.uint8).ctypes.data
        assert all((array.ctypes.data - base) % 64 == 0
                   for array in sections.values())
        assert len(image) % 64 == 0

    def test_loaded_index_holds_views_not_lists(self):
        graph = gnm_random_digraph(200, 260, seed=4)
        index = DualIIndex.build(graph)
        loaded = loads_index(dumps_index(index))
        assert isinstance(loaded._component_of, DenseComponentMap)
        assert loaded._starts.dtype == np.int32
        assert not loaded._starts.flags.writeable  # a view of the bytes
        assert loaded.tlc_matrix.matrix.dtype == np.uint8  # packed cells
        ids = np.arange(200)
        kernel = FastKernel(loaded.label_arrays(), use_compiled=False)
        answers = kernel.query_ids(ids, ids[::-1]).tolist()
        assert loaded._scalar is None  # no list copies on this path
        assert answers == [index.reachable(u, v)
                           for u, v in zip(ids.tolist(),
                                           ids[::-1].tolist())]

    def test_string_nodes_use_the_node_list(self):
        graph = DiGraph([("a", "b"), ("b", "c"), (1, "a")])
        loaded = loads_index(dumps_index(DualIIndex.build(graph)))
        assert isinstance(loaded._component_of, dict)
        assert loaded.reachable(1, "c")
        assert not loaded.reachable("c", 1)

    def test_image_is_deterministic(self):
        graph = gnm_random_digraph(80, 120, seed=2)
        index = DualIIIndex.build(graph)
        assert dumps_index(index) == dumps_index(index)
        assert dumps_index(loads_index(dumps_index(index))) == \
            dumps_index(index)


class TestLabelInvariants:
    """An image whose digest verifies but whose labels break one of the
    paper's invariants is refused on load, naming the invariant."""

    def test_resealed_intact_image_loads(self, tmp_path):
        index = build_index(gnm_random_digraph(30, 50, seed=1))
        image = bytearray(dumps_index(index))
        path = tmp_path / "index.idx"
        path.write_bytes(_resealed(image))
        assert load_dual_index(path).stats().t == index.stats().t

    @pytest.mark.parametrize("case", sorted(BROKEN_IMAGES))
    def test_broken_labels_refused(self, tmp_path, case):
        _index, image = broken_image(case)
        path = tmp_path / "broken.idx"
        path.write_bytes(image)
        invariant = BROKEN_IMAGES[case][2]
        with pytest.raises(CorruptIndexError, match=invariant) as info:
            load_dual_index(path)
        assert str(path) in str(info.value)
        with pytest.raises(CorruptIndexError, match=invariant):
            loads_index(image)
