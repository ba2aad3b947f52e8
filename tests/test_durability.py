"""Durable service state: journal, checkpoint, recovery, quarantine.

Unit-level proof of the ``--state-dir`` contracts
(:mod:`repro.server.durability`):

* a torn journal tail — truncation at *every* byte offset of the
  final record — recovers with that record fully applied or fully
  dropped, never half-applied;
* mid-journal corruption (not a torn tail) quarantines the journal to
  ``*.corrupt`` and raises the typed :class:`CorruptJournalError`;
  the *next* recovery succeeds from the last checkpoint;
* checkpoint compaction bounds journal growth and survives round
  trips;
* generation-retention GC keeps exactly the retained artifact window
  and never touches quarantined files;
* a saved-index artifact the loader refuses — damaged bytes, labels
  that break an invariant, or a JSON index from an older release — is
  quarantined at boot (:func:`restore_catalog`) and degrades the entry
  instead of crashing startup.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.core.base import build_index
from repro.core.serialize import dumps_index
from repro.exceptions import CorruptJournalError
from repro.graph.generators import gnm_random_digraph
from repro.server.durability import (
    INDEX_DIR,
    JOURNAL_NAME,
    DurableState,
    parse_artifact_name,
    restore_catalog,
)
from tests.conftest import BROKEN_IMAGES, broken_image


@pytest.fixture
def index():
    return build_index(gnm_random_digraph(40, 80, seed=7),
                       scheme="dual-i")


def _fresh(path, **kwargs) -> DurableState:
    state = DurableState(path, **kwargs)
    state.recover()
    return state


class TestJournalRoundTrip:
    def test_mutations_survive_reopen(self, tmp_path, index):
        state = _fresh(tmp_path)
        state.record_create("tA", index_id=1, scheme="dual-i",
                            quota={"rate": 5.0})
        artifact = state.save_index(index, "tA", 1)
        state.record_install("tA", index_id=1, scheme="dual-i",
                            generation=1, label_bytes=123,
                            artifact=artifact)
        state.record_drop("tA")
        state.record_create("tB", index_id=2, scheme="dual-ii",
                            quota={})
        state.close()

        reopened = _fresh(tmp_path)
        names = {e.name for e in reopened.entries()}
        assert names == {"tB"}
        entry = reopened.entry("tB")
        assert entry.scheme == "dual-ii"
        assert entry.generation == 0
        assert reopened.next_generation("tB") == 1
        reopened.close()

    def test_recovered_gate(self, tmp_path):
        state = DurableState(tmp_path)
        with pytest.raises(CorruptJournalError):
            state.record_create("tA", index_id=1, scheme="dual-i",
                                quota={})


class TestTornTail:
    def test_every_truncation_offset_is_atomic(self, tmp_path, index):
        """The power-loss contract, exhaustively: chop the journal at
        every byte offset inside the final record and recover."""
        base = tmp_path / "base"
        state = _fresh(base, checkpoint_interval=100)
        state.record_create("tA", index_id=1, scheme="dual-i",
                            quota={})
        before = state.journal_path.read_bytes()
        state.record_create("tB", index_id=2, scheme="dual-i",
                            quota={})
        state.close()
        full = (base / JOURNAL_NAME).read_bytes()
        assert full[:len(before)] == before

        for offset in range(len(before), len(full) + 1):
            work = tmp_path / f"cut{offset}"
            shutil.copytree(base, work)
            (work / JOURNAL_NAME).write_bytes(full[:offset])
            recovered = _fresh(work, checkpoint_interval=100)
            names = {e.name for e in recovered.entries()}
            # Fully applied or fully dropped — never a hybrid.
            assert names in ({"tA"}, {"tA", "tB"}), offset
            if offset < len(full):
                assert names == {"tA"}, offset
            # The truncated tail is gone for good: appending works
            # and a further reopen sees a consistent journal.
            recovered.record_create("tC", index_id=3,
                                    scheme="dual-i", quota={})
            recovered.close()
            again = _fresh(work, checkpoint_interval=100)
            assert "tC" in {e.name for e in again.entries()}
            again.close()
            shutil.rmtree(work)

    def test_quota_record_truncation_is_atomic(self, tmp_path):
        """The ``quota`` record type (admission updates journaled by
        the operations plane) honours the same power-loss contract:
        chopped at any byte, the update is fully applied or fully
        dropped — never a half-written quota."""
        base = tmp_path / "base"
        state = _fresh(base, checkpoint_interval=100)
        state.record_create("tA", index_id=1, scheme="dual-i",
                            quota={"rate": 5.0})
        before = state.journal_path.read_bytes()
        state.record_quota("tA", {"rate": 9.0, "burst": 18.0})
        state.close()
        full = (base / JOURNAL_NAME).read_bytes()
        assert full[:len(before)] == before

        for offset in range(len(before), len(full) + 1):
            work = tmp_path / f"cut{offset}"
            shutil.copytree(base, work)
            (work / JOURNAL_NAME).write_bytes(full[:offset])
            recovered = _fresh(work, checkpoint_interval=100)
            quota = recovered.entry("tA").quota
            assert quota in ({"rate": 5.0},
                             {"rate": 9.0, "burst": 18.0}), offset
            if offset < len(full):
                assert quota == {"rate": 5.0}, offset
            recovered.close()
            shutil.rmtree(work)

    def test_quota_for_dropped_entry_replays_as_noop(self, tmp_path):
        """Replay tolerates a quota record whose entry a later drop
        removed — the checkpoint may have compacted the create away."""
        state = _fresh(tmp_path, checkpoint_interval=100)
        state.record_create("tA", index_id=1, scheme="dual-i",
                            quota={})
        state.record_quota("tA", {"rate": 3.0})
        state.record_drop("tA")
        state.record_quota("tA", {"rate": 7.0})  # stale broadcast
        state.close()
        recovered = _fresh(tmp_path, checkpoint_interval=100)
        assert recovered.entries() == []
        recovered.close()

    def test_zero_filled_tail_is_truncated(self, tmp_path):
        """A pre-allocated-but-unwritten tail (all zero bytes, the
        classic power-loss artifact) is a torn tail, not corruption."""
        state = _fresh(tmp_path)
        state.record_create("tA", index_id=1, scheme="dual-i",
                            quota={})
        state.close()
        with open(tmp_path / JOURNAL_NAME, "ab") as fh:
            fh.write(b"\x00" * 64)
        recovered = _fresh(tmp_path)
        assert {e.name for e in recovered.entries()} == {"tA"}
        recovered.close()


class TestMidJournalCorruption:
    def test_quarantines_and_raises_typed_error(self, tmp_path):
        state = _fresh(tmp_path, checkpoint_interval=100)
        state.record_create("tA", index_id=1, scheme="dual-i",
                            quota={})
        first = state.journal_path.read_bytes()
        state.record_create("tB", index_id=2, scheme="dual-i",
                            quota={})
        state.close()

        journal = tmp_path / JOURNAL_NAME
        blob = bytearray(journal.read_bytes())
        blob[len(first) // 2] ^= 0x55  # flip mid-record-one: not a tail
        journal.write_bytes(bytes(blob))

        state = DurableState(tmp_path, checkpoint_interval=100)
        with pytest.raises(CorruptJournalError) as excinfo:
            state.recover()
        assert excinfo.value.quarantined
        assert not journal.exists()
        corrupt = list(tmp_path.glob(f"{JOURNAL_NAME}.corrupt*"))
        assert corrupt, "journal must be preserved for forensics"

        # The next start recovers cleanly (here: to the empty
        # pre-journal state, as no checkpoint had been cut).
        recovered = _fresh(tmp_path, checkpoint_interval=100)
        assert recovered.entries() == []
        assert recovered.recovered
        recovered.close()

    def test_checkpointed_state_survives_journal_loss(self, tmp_path):
        state = _fresh(tmp_path, checkpoint_interval=100)
        state.record_create("tA", index_id=1, scheme="dual-i",
                            quota={})
        state.checkpoint()  # tA now lives in the manifest
        state.record_create("tB", index_id=2, scheme="dual-i",
                            quota={})
        state.record_create("tC", index_id=3, scheme="dual-i",
                            quota={})
        state.close()

        # Corrupt the first post-checkpoint record's payload; tC
        # after it makes this mid-journal damage, not a torn tail.
        journal = tmp_path / JOURNAL_NAME
        blob = bytearray(journal.read_bytes())
        blob[12] ^= 0xFF
        journal.write_bytes(bytes(blob))

        broken = DurableState(tmp_path, checkpoint_interval=100)
        with pytest.raises(CorruptJournalError):
            broken.recover()
        recovered = _fresh(tmp_path, checkpoint_interval=100)
        assert {e.name for e in recovered.entries()} == {"tA"}
        recovered.close()


class TestCheckpointCompaction:
    def test_auto_checkpoint_bounds_the_journal(self, tmp_path):
        state = _fresh(tmp_path, checkpoint_interval=3)
        for i in range(10):
            state.record_create(f"t{i}", index_id=i + 1,
                                scheme="dual-i", quota={})
            assert state.status()["journal_records"] < 3
        status = state.status()
        assert status["checkpoints"] >= 3
        assert status["seq"] == 10
        state.close()

        recovered = _fresh(tmp_path, checkpoint_interval=3)
        assert len(recovered.entries()) == 10
        # Replay resumes the global sequence, not a per-boot one.
        assert recovered.status()["seq"] == 10
        recovered.close()

    def test_checkpoint_truncates_the_journal_file(self, tmp_path):
        state = _fresh(tmp_path, checkpoint_interval=100)
        for i in range(5):
            state.record_create(f"t{i}", index_id=i + 1,
                                scheme="dual-i", quota={})
        assert state.journal_path.stat().st_size > 0
        state.checkpoint()
        assert state.journal_path.stat().st_size == 0
        assert state.status()["journal_records"] == 0
        state.close()


class TestArtifactGC:
    def test_retention_window(self, tmp_path, index):
        state = _fresh(tmp_path, checkpoint_interval=100,
                       retain_generations=2)
        for gen in range(1, 5):
            artifact = state.save_index(index, "default", gen)
            state.record_install("default", index_id=0,
                                 scheme="dual-i", generation=gen,
                                 label_bytes=1, artifact=artifact)
        state.checkpoint()  # GC runs with the checkpoint
        names = sorted(p.name for p
                       in (tmp_path / INDEX_DIR).iterdir())
        assert names == ["default-g3.idx", "default-g4.idx"]
        state.close()

    def test_recovery_drops_orphans_and_futures(self, tmp_path, index):
        state = _fresh(tmp_path, checkpoint_interval=100,
                       retain_generations=2)
        artifact = state.save_index(index, "default", 1)
        state.record_install("default", index_id=0, scheme="dual-i",
                             generation=1, label_bytes=1,
                             artifact=artifact)
        # A crash between artifact save and journal fsync leaves a
        # future-generation orphan; recovery must sweep it.
        state.save_index(index, "default", 2)
        # An artifact for an entry the journal never heard of.
        state.save_index(index, "ghost", 1)
        quarantined = tmp_path / INDEX_DIR / "old.json.corrupt"
        quarantined.write_text("poison")
        state.close()

        recovered = _fresh(tmp_path, checkpoint_interval=100,
                           retain_generations=2)
        names = sorted(p.name for p
                       in (tmp_path / INDEX_DIR).iterdir())
        assert names == ["default-g1.idx", "old.json.corrupt"]
        assert recovered.next_generation("default") == 2
        recovered.close()


class TestRestoreCatalog:
    def _installed(self, tmp_path, index, name, index_id):
        state = _fresh(tmp_path)
        if index_id != 0:
            state.record_create(name, index_id=index_id,
                                scheme="dual-i", quota={})
        artifact = state.save_index(index, name, 1)
        state.record_install(name, index_id=index_id,
                             scheme="dual-i", generation=1,
                             label_bytes=1, artifact=artifact)
        return state

    def test_fresh_state_builds_the_default(self, tmp_path, index):
        state = _fresh(tmp_path)
        boot = restore_catalog(
            state, default_factory=lambda: (index, "dual-i"))
        assert boot.default.generation == 1
        # The factory's index is served as its image, the saved bytes.
        assert boot.default.index.image == dumps_index(index) == (
            tmp_path / state.entry("default").artifact).read_bytes()
        assert not boot.degraded
        state.close()

        # The factory-built default became durable: the next boot
        # restores it without the factory.
        reopened = _fresh(tmp_path)
        boot2 = restore_catalog(
            reopened,
            default_factory=lambda: pytest.fail("factory re-invoked"))
        assert boot2.default.generation == 1
        assert boot2.default.index.stats().num_nodes \
            == index.stats().num_nodes
        reopened.close()

    def test_corrupt_tenant_artifact_quarantined_not_fatal(
            self, tmp_path, index):
        state = self._installed(tmp_path, index, "tA", 1)
        artifact = state.entry("tA").artifact
        state.close()

        path = tmp_path / artifact
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x55
        path.write_bytes(bytes(blob))

        reopened = _fresh(tmp_path)
        boot = restore_catalog(
            reopened, default_factory=lambda: (index, "dual-i"))
        (tenant,) = boot.tenants
        assert tenant.name == "tA"
        assert tenant.index is None  # registered but empty
        assert boot.degraded and "quarantined" in boot.degraded[0]
        assert not path.exists()
        assert list(path.parent.glob(f"{path.name}.corrupt*"))
        reopened.close()

    def test_corrupt_default_artifact_falls_back_to_factory(
            self, tmp_path, index):
        state = self._installed(tmp_path, index, "default", 0)
        artifact = state.entry("default").artifact
        state.close()
        path = tmp_path / artifact
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x55
        path.write_bytes(bytes(blob))

        reopened = _fresh(tmp_path)
        boot = restore_catalog(
            reopened, default_factory=lambda: (index, "dual-i"))
        assert boot.default.index.image == dumps_index(index)
        assert boot.default.generation == 2  # rebuild is a new gen
        assert boot.degraded
        reopened.close()

    def test_missing_artifact_degrades_without_quarantine(
            self, tmp_path, index):
        state = self._installed(tmp_path, index, "tA", 1)
        artifact = state.entry("tA").artifact
        state.close()
        (tmp_path / artifact).unlink()

        reopened = _fresh(tmp_path)
        boot = restore_catalog(
            reopened, default_factory=lambda: (index, "dual-i"))
        (tenant,) = boot.tenants
        assert tenant.index is None
        assert boot.degraded and "missing" in boot.degraded[0]
        reopened.close()

    def test_json_artifact_from_an_older_release_degrades(
            self, tmp_path, index):
        """A manifest naming a JSON index (what older releases saved)
        boots: the file is quarantined and its entry degraded."""
        state = self._installed(tmp_path, index, "tA", 1)
        state.close()
        legacy = tmp_path / INDEX_DIR / "tA-g2.json"
        legacy.write_text(json.dumps({"format": "repro-dual-i",
                                      "version": 2, "starts": [0]}))
        state = _fresh(tmp_path)
        state.record_install("tA", index_id=1, scheme="dual-i",
                             generation=2, label_bytes=1,
                             artifact=f"{INDEX_DIR}/{legacy.name}")
        state.checkpoint()
        state.close()

        reopened = _fresh(tmp_path)
        boot = restore_catalog(
            reopened, default_factory=lambda: (index, "dual-i"))
        (tenant,) = boot.tenants
        assert tenant.index is None
        assert boot.degraded and "JSON" in boot.degraded[0]
        assert not legacy.exists()
        assert (legacy.parent / f"{legacy.name}.corrupt").exists()
        reopened.close()

    @pytest.mark.parametrize("case", sorted(BROKEN_IMAGES))
    def test_broken_labels_quarantined_at_boot(self, tmp_path, case):
        index, image = broken_image(case)
        state = self._installed(tmp_path, index, "tA", 1)
        path = tmp_path / state.entry("tA").artifact
        state.close()
        path.write_bytes(image)

        reopened = _fresh(tmp_path)
        boot = restore_catalog(
            reopened, default_factory=lambda: (index, "dual-i"))
        (tenant,) = boot.tenants
        assert tenant.index is None
        assert boot.degraded and BROKEN_IMAGES[case][2] in boot.degraded[0]
        assert not path.exists()
        assert (path.parent / f"{path.name}.corrupt").exists()
        reopened.close()


def test_artifact_names_round_trip():
    assert parse_artifact_name("default-g12.idx") == ("default", 12)
    assert parse_artifact_name("a-g1-g3.idx") == ("a-g1", 3)
    for stray in ("default-g3.json", "x.idx.123.tmp", "default-g3.idx"
                  ".corrupt", "default.idx"):
        assert parse_artifact_name(stray) is None


def test_failed_default_persist_degrades_with_flight_event(
        tmp_path, index, monkeypatch):
    """A reload of entry 0 whose durable commit fails answers
    ``reload_failed`` and enters degraded mode the one way every other
    failure does: a ``degraded`` flight event and a dump."""
    from repro.core.service import QueryService
    from repro.graph.io import write_edge_list
    from repro.server.client import ReachClient, ServerReplyError
    from repro.server.server import ReachServer, ServerConfig, ServerThread

    state = _fresh(tmp_path / "state")
    graph_path = tmp_path / "next.edges"
    write_edge_list(gnm_random_digraph(30, 60, seed=8), graph_path)

    def refuse(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(state, "save_index", refuse)
    server = ReachServer(QueryService(index), config=ServerConfig(
        state=state, flight_dir=tmp_path / "flight"))
    with ServerThread(server) as handle, \
            ReachClient(port=handle.port) as client:
        with pytest.raises(ServerReplyError) as excinfo:
            client.reload(graph=graph_path)
        assert excinfo.value.code == "reload_failed"
        assert client.health()["status"] == "degraded"
        doc = client.flight()
        assert "degraded" in {event["kind"] for event in doc["events"]}
        assert doc["dumps"] >= 1
        # Nothing was journaled: the failed generation never existed.
        assert state.entry("default") is None
    state.close()
