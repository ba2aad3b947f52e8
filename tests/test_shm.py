"""Shared-memory index publication: roundtrip, lifecycle, corruption.

The fleet's correctness rests on :mod:`repro.core.shm` honouring three
contracts: an attached index answers bit-identically to the published
one (the payload *is* the checksummed serialise image), the
publisher alone owns the segment's lifetime (attachers copy-parse and
detach, so even a SIGKILLed attacher leaks nothing), and any damage —
bad magic, truncated payload, flipped bits, labels that break an
invariant — surfaces as the typed
:class:`~repro.exceptions.CorruptIndexError` before a single query is
answered from garbage.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing import shared_memory

import pytest

from repro.core.base import build_index
from repro.core.shm import (
    MAGIC,
    SEGMENT_PREFIX,
    PublishedIndex,
    _untrack,
    attach_index,
    list_segments,
    publish_index,
    stale_segments,
    sweep_stale_segments,
)
from repro.exceptions import CorruptIndexError
from repro.graph.generators import gnm_random_digraph, random_dag
from tests.conftest import BROKEN_IMAGES, broken_image


def _pairs(graph, count=256, seed=5):
    import random

    rng = random.Random(seed)
    n = graph.num_nodes
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def _open_raw(name: str) -> shared_memory.SharedMemory:
    """A second writable mapping of ``name`` for corruption tests,
    withdrawn from the resource tracker so closing it does not fight
    the publisher over ownership."""
    raw = shared_memory.SharedMemory(name=name)
    _untrack(raw)
    return raw


class TestRoundtrip:
    @pytest.mark.parametrize("scheme", ["dual-i", "dual-ii"])
    def test_attach_answers_bit_identically(self, scheme):
        graph = gnm_random_digraph(60, 140, seed=9)
        index = build_index(graph, scheme=scheme)
        pairs = _pairs(graph)
        with publish_index(index) as published:
            attached = attach_index(published.name)
            assert attached.reachable_many(pairs) == \
                index.reachable_many(pairs)
            stats = attached.stats()
            assert stats.scheme == scheme
            assert stats.num_nodes == graph.num_nodes

    def test_payload_is_the_serialize_document(self):
        """The payload is the index image, byte for byte: the same
        bytes ``save_dual_index`` writes, digest included."""
        from repro.core import serialize

        index = build_index(random_dag(30, 40, seed=1), scheme="dual-i")
        with publish_index(index) as published:
            raw = _open_raw(published.name)
            try:
                assert bytes(raw.buf[:8]) == MAGIC
                payload = bytes(raw.buf[16:16 + published.payload_bytes])
            finally:
                raw.close()
        assert payload == serialize.dumps_index(index)
        assert payload.startswith(serialize.MAGIC)

    def test_attach_holds_no_mapping(self):
        # An attacher must be able to come and go without affecting
        # the segment: attach twice, then the publisher unlinks.
        index = build_index(random_dag(25, 32, seed=2), scheme="dual-i")
        published = publish_index(index)
        try:
            attach_index(published.name)
            attach_index(published.name)
        finally:
            published.unlink()
        with pytest.raises(FileNotFoundError):
            attach_index(published.name)


class TestLifecycle:
    def test_default_name_carries_the_scan_prefix(self):
        index = build_index(random_dag(20, 26, seed=3), scheme="dual-i")
        with publish_index(index) as published:
            assert published.name.startswith(SEGMENT_PREFIX)
            assert published.name in list_segments()
        assert published.name not in list_segments()

    def test_explicit_generation_names(self):
        index = build_index(random_dag(20, 26, seed=3), scheme="dual-i")
        name = f"{SEGMENT_PREFIX}test-{os.getpid()}-g0"
        with publish_index(index, name=name) as published:
            assert published.name == name
            assert attach_index(name).stats().num_nodes == 20

    def test_unlink_is_idempotent(self):
        index = build_index(random_dag(20, 26, seed=3), scheme="dual-i")
        published = publish_index(index)
        published.unlink()
        published.unlink()  # second call must be a no-op, not a raise
        assert published.name not in list_segments()

    def test_sigkilled_attacher_leaks_nothing(self):
        """A worker dying mid-attach must not leak or damage the
        segment — the publisher still owns it, the next attach still
        succeeds, and nothing strays in /dev/shm."""
        index = build_index(gnm_random_digraph(50, 110, seed=4),
                            scheme="dual-ii")
        before = set(list_segments())
        with publish_index(index) as published:
            ctx = multiprocessing.get_context("spawn")
            ready = ctx.Event()
            proc = ctx.Process(target=_attach_and_linger,
                               args=(published.name, ready),
                               daemon=True)
            proc.start()
            assert ready.wait(timeout=60), "attacher never attached"
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10)
            # The segment survives its attacher's violent death...
            attached = attach_index(published.name)
            assert attached.stats().num_nodes == 50
            assert set(list_segments()) == before | {published.name}
        # ...and the publisher's unlink still wins in the end.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if set(list_segments()) == before:
                break
            time.sleep(0.05)
        assert set(list_segments()) == before


def _attach_and_linger(name: str, ready) -> None:
    """Child-process body for the SIGKILL test (spawn-importable)."""
    attach_index(name)
    ready.set()
    time.sleep(60)  # killed long before this expires


def _publish_and_die(conn) -> None:
    """Child body for the stale-sweep test: publish under the default
    (pid-embedding) name and hard-exit without unlinking — the exact
    leak shape of a SIGKILLed fleet parent."""
    index = build_index(random_dag(20, 26, seed=3), scheme="dual-i")
    published = publish_index(index)
    published.close()
    conn.send(published.name)
    conn.close()
    os._exit(0)


def _dead_pid() -> int:
    """A pid guaranteed dead: a child that already exited."""
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(target=_noop)
    proc.start()
    proc.join(timeout=30)
    return proc.pid


def _noop() -> None:
    pass


class TestStaleSweep:
    def test_dead_owner_segment_is_swept(self):
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_publish_and_die, args=(child_conn,))
        proc.start()
        child_conn.close()
        assert parent_conn.poll(timeout=60), "child never published"
        name = parent_conn.recv()
        proc.join(timeout=30)
        assert name in list_segments(), "child never published"
        assert name in stale_segments()
        removed = sweep_stale_segments()
        assert name in removed
        assert name not in list_segments()

    def test_live_owner_segment_survives_the_sweep(self):
        index = build_index(random_dag(20, 26, seed=3), scheme="dual-i")
        with publish_index(index) as published:
            assert published.name not in stale_segments()
            assert published.name not in sweep_stale_segments()
            assert published.name in list_segments()

    def test_explicit_non_pid_names_are_skipped(self):
        # Explicitly named segments carry no owner pid; the sweep must
        # leave them alone even though the prefix matches.
        index = build_index(random_dag(20, 26, seed=3), scheme="dual-i")
        name = f"{SEGMENT_PREFIX}test-sweep-{os.getpid()}"
        with publish_index(index, name=name):
            assert name not in stale_segments()
            assert name not in sweep_stale_segments()
            assert name in list_segments()

    def test_foreign_segment_without_magic_is_never_unlinked(self):
        # A dead-pid name that does NOT carry our publication magic is
        # somebody else's data (or garbage) — report nothing, touch
        # nothing.
        pid = _dead_pid()
        name = f"{SEGMENT_PREFIX}{pid}-deadbeef"
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=64)
        try:
            shm.buf[:8] = b"NOTMAGIC"
            assert name not in stale_segments()
            assert name not in sweep_stale_segments()
            assert name in list_segments()
        finally:
            shm.close()
            shm.unlink()


class TestCorruption:
    @pytest.fixture()
    def published(self):
        index = build_index(gnm_random_digraph(40, 90, seed=6),
                            scheme="dual-i")
        handle = publish_index(index)
        yield handle
        handle.unlink()

    def test_bad_magic(self, published: PublishedIndex):
        raw = _open_raw(published.name)
        try:
            raw.buf[0] ^= 0xFF
        finally:
            raw.close()
        with pytest.raises(CorruptIndexError, match="bad magic"):
            attach_index(published.name)

    def test_length_overruns_segment(self, published: PublishedIndex):
        raw = _open_raw(published.name)
        try:
            raw.buf[8:16] = (2 ** 62).to_bytes(8, "little")
        finally:
            raw.close()
        with pytest.raises(CorruptIndexError, match="truncated"):
            attach_index(published.name)

    def test_flipped_payload_bit_fails_checksum(
            self, published: PublishedIndex):
        raw = _open_raw(published.name)
        try:
            middle = 16 + published.payload_bytes // 2
            raw.buf[middle] ^= 0x20
        finally:
            raw.close()
        with pytest.raises(CorruptIndexError):
            attach_index(published.name)

    def test_segment_smaller_than_header(self):
        name = f"{SEGMENT_PREFIX}tiny-{os.getpid()}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=4)
        try:
            with pytest.raises(CorruptIndexError, match="header"):
                attach_index(name)
        finally:
            shm.close()
            shm.unlink()

    def test_error_messages_name_the_segment(
            self, published: PublishedIndex):
        raw = _open_raw(published.name)
        try:
            raw.buf[0] ^= 0xFF
        finally:
            raw.close()
        with pytest.raises(CorruptIndexError,
                           match=f"shm:{published.name}"):
            attach_index(published.name)


@pytest.mark.parametrize("case", sorted(BROKEN_IMAGES))
def test_broken_labels_refused_on_attach(case):
    """A segment whose image verifies but breaks a label invariant is
    refused before a worker can serve from it."""
    index, image = broken_image(case)
    with publish_index(index) as published:
        assert published.payload_bytes == len(image)
        raw = _open_raw(published.name)
        try:
            raw.buf[16:16 + len(image)] = image
        finally:
            raw.close()
        with pytest.raises(CorruptIndexError,
                           match=BROKEN_IMAGES[case][2]) as info:
            attach_index(published.name)
        assert f"shm:{published.name}" in str(info.value)
