"""Durable service state: journaled catalog persistence + recovery.

Until now the gateway's catalog — which indexes exist, their quotas,
and which generation is live — died with the process; every restart
meant rebuilding tenants from ``--tenant`` flags.  This module gives
``serve --state-dir DIR`` a write-ahead durability contract:

* an **append-only journal** (``journal.log``) of catalog mutations.
  Each record is ``magic | length | crc32`` framing around a JSON
  payload carrying a monotonically increasing ``seq`` and one of three
  ops: ``create`` (name, id, scheme, quota), ``install`` (a new index
  generation became live: generation, label bytes, artifact path) and
  ``drop``.  Appends are flushed and ``fsync``\\ ed before the caller
  acknowledges its client, so an acked mutation survives power loss;
* **checkpoint compaction**: every ``checkpoint_interval`` records the
  whole catalog is folded into ``MANIFEST.json`` — a sha256-checksummed
  JSON document written with the same atomic tmp+fsync+rename writer
  as index images (:func:`repro.core.serialize.write_atomic`) — and
  the journal is truncated, bounding journal growth and replay time;
* **per-tenant index artifacts** under ``indexes/`` named
  ``<name>-g<generation>.idx`` (plain :func:`save_dual_index` images),
  with retention GC keeping the last ``retain_generations`` per tenant
  and removing orphans (an artifact the loader refuses is quarantined
  at boot and its entry degraded);
* **recovery** (:meth:`DurableState.recover`): load the manifest,
  replay journal records with ``seq`` beyond it, and restore the
  catalog to its last durable state.  A *torn trailing record* — the
  expected signature of SIGKILL/power-loss mid-append — is silently
  truncated (that mutation was never acked).  Damage anywhere *before*
  the tail means the file itself is corrupt: it is quarantined to
  ``*.corrupt`` and the typed
  :class:`~repro.exceptions.CorruptJournalError` is raised.

Crash atomicity hinges on ordering.  A mutation is **committed** the
instant its journal record is fsynced; artifacts are saved *before*
the journal record that references them, and in-memory catalog
installs happen *after*.  So a crash at any point leaves the durable
catalog in exactly the pre- or post-mutation state: before the fsync
the new artifact is an unreferenced orphan (GC'd on recovery), after
it the mutation is fully visible on restart.

The ``chaos --crash-restart`` soak
(:func:`repro.testing.chaos.run_crash_restart_soak`) SIGKILLs a live
server at randomized points — mid-mutation, mid-checkpoint,
mid-manifest-swap — and asserts exactly this contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.serialize import (as_image, load_dual_index,
                                  save_dual_index, write_atomic)
from repro.exceptions import CorruptJournalError, IndexBuildError
from repro.server.tenancy import (DEFAULT_INDEX, DEFAULT_INDEX_ID,
                                  EntryRow, index_label_bytes)

__all__ = [
    "BootCatalog",
    "DurableState",
    "EntryState",
    "RecoveryReport",
    "restore_catalog",
]

JOURNAL_NAME = "journal.log"
MANIFEST_NAME = "MANIFEST.json"
INDEX_DIR = "indexes"

MANIFEST_FORMAT = "repro-state-manifest"
MANIFEST_VERSION = 1

#: Journal record framing: 2-byte magic, u32 payload length, u32 crc32
#: of the payload, then the UTF-8 JSON payload itself.
RECORD_MAGIC = b"RJ"
_HEADER = struct.Struct("<2sII")

#: Upper bound on one record's payload (catalog metadata is tiny; a
#: larger claimed length can only be corruption).
MAX_RECORD_BYTES = 1 << 24

_ARTIFACT_RE = re.compile(r"^(?P<name>.+)-g(?P<gen>\d+)\.idx$")


def parse_artifact_name(filename: str) -> tuple[str, int] | None:
    """``(entry name, generation)`` of an artifact file, else ``None``."""
    match = _ARTIFACT_RE.match(filename)
    return match and (match.group("name"), int(match.group("gen")))


def content_checksum(document: dict) -> str:
    """sha256 over every manifest field except ``checksum``."""
    body = {key: value for key, value in document.items()
            if key != "checksum"}
    return "sha256:" + hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass
class EntryState:
    """One catalog entry's durable snapshot (manifest/journal form)."""

    name: str
    index_id: int
    scheme: str
    generation: int = 0
    quota: dict = field(default_factory=dict)
    label_bytes: int = 0
    #: State-dir-relative path of the live generation's saved index,
    #: or ``None`` for a created-but-never-installed entry.
    artifact: str | None = None

    def as_doc(self) -> dict:
        return {
            "name": self.name,
            "index_id": self.index_id,
            "scheme": self.scheme,
            "generation": self.generation,
            "quota": dict(self.quota),
            "label_bytes": self.label_bytes,
            "artifact": self.artifact,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "EntryState":
        return cls(name=doc["name"], index_id=int(doc["index_id"]),
                   scheme=doc["scheme"],
                   generation=int(doc.get("generation", 0)),
                   quota=dict(doc.get("quota") or {}),
                   label_bytes=int(doc.get("label_bytes", 0)),
                   artifact=doc.get("artifact"))


@dataclass
class RecoveryReport:
    """What :meth:`DurableState.recover` found and did."""

    #: Wall seconds spent recovering (manifest + journal replay + GC;
    #: artifact loads done by :func:`restore_catalog` add to
    #: :attr:`DurableState.recovery_seconds` separately).
    seconds: float = 0.0
    entries: int = 0
    checkpoint_seq: int = 0
    replayed_records: int = 0
    #: Bytes of torn trailing journal dropped by truncation (0 on a
    #: clean shutdown).
    truncated_bytes: int = 0
    removed_artifacts: int = 0
    #: Human-readable notes (truncation, orphan GC, quarantines added
    #: later by the artifact-restore pass).
    notes: list = field(default_factory=list)


def _scan_journal(data: bytes):
    """Parse journal bytes into ``(records, good_end, error)``.

    ``good_end`` is the byte offset just past the last intact record.
    ``error`` is ``None`` when everything past ``good_end`` is a torn
    tail (safe to truncate), or a human-readable string when the
    damage is *mid-file* — i.e. verifiably-written data follows it —
    which recovery must treat as corruption.
    """
    records = []
    pos = 0
    n = len(data)
    while pos < n:
        if n - pos < _HEADER.size:
            return records, pos, None  # torn: partial header at EOF
        magic, length, crc = _HEADER.unpack_from(data, pos)
        if magic != RECORD_MAGIC:
            if not any(data[pos:]):
                return records, pos, None  # zero-filled tail
            return records, pos, (
                f"bad record magic {magic!r} at offset {pos}")
        if length > MAX_RECORD_BYTES:
            return records, pos, (
                f"record at offset {pos} claims {length} bytes "
                f"(limit {MAX_RECORD_BYTES})")
        body_start = pos + _HEADER.size
        end = body_start + length
        if end > n:
            return records, pos, None  # torn: truncated payload
        payload = data[body_start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            if end == n:
                # CRC failure on the *final* record: a partially
                # persisted append (e.g. zero-filled sectors), not
                # mid-file damage.
                return records, pos, None
            return records, pos, (
                f"payload CRC mismatch at offset {pos}")
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            if end == n:
                return records, pos, None
            return records, pos, (
                f"undecodable record payload at offset {pos}")
        records.append(doc)
        pos = end
    return records, pos, None


def _encode_record(doc: dict) -> bytes:
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(RECORD_MAGIC, len(payload),
                        zlib.crc32(payload) & 0xFFFFFFFF) + payload


class DurableState:
    """The ``--state-dir`` subsystem: journal, checkpoints, artifacts.

    Thread-safe: the server appends from both its event loop (catalog
    create/drop) and its reload executor (index installs); one lock
    serialises every journal append, checkpoint, and GC.

    Call :meth:`recover` exactly once before serving; :meth:`status`
    feeds the ``stats``/``catalog list`` durability block.
    """

    def __init__(self, state_dir, *, checkpoint_interval: int = 64,
                 retain_generations: int = 2) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if retain_generations < 1:
            raise ValueError("retain_generations must be >= 1")
        self.state_dir = Path(state_dir)
        self.checkpoint_interval = int(checkpoint_interval)
        self.retain_generations = int(retain_generations)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        (self.state_dir / INDEX_DIR).mkdir(exist_ok=True)
        self._lock = threading.Lock()
        self._entries: dict[str, EntryState] = {}
        self._seq = 0
        self._checkpoint_seq = 0
        self._records_since_checkpoint = 0
        self._journal = None
        self._checkpoints = 0
        self._appended = 0
        self.recovered = False
        self.recovery_seconds: float | None = None
        #: Degraded-mode reasons :func:`restore_catalog` found at boot;
        #: the single server and the fleet both start degraded with them.
        self.degraded: list[str] = []

    # -- paths ----------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.state_dir / JOURNAL_NAME

    @property
    def manifest_path(self) -> Path:
        return self.state_dir / MANIFEST_NAME

    def artifact_path(self, relative: str) -> Path:
        return self.state_dir / relative

    # -- recovery -------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Rebuild the durable catalog from manifest + journal.

        Raises :class:`CorruptJournalError` after quarantining the
        damaged file when the manifest fails verification or the
        journal is damaged mid-file.  A torn trailing record is
        truncated away silently (noted in the report).
        """
        started = time.monotonic()
        report = RecoveryReport()
        with self._lock:
            self._recover_manifest(report)
            self._recover_journal(report)
            report.entries = len(self._entries)
            removed = self._gc_artifacts_locked(drop_future=True)
            report.removed_artifacts = len(removed)
            if removed:
                report.notes.append(
                    f"removed {len(removed)} orphaned artifact(s)")
            self._journal = open(self.journal_path, "ab")
            self.recovered = True
        report.seconds = time.monotonic() - started
        self.recovery_seconds = report.seconds
        return report

    def _quarantine_file(self, path: Path) -> str:
        """Rename ``path`` out of the way as ``*.corrupt`` and return
        the new name (suffixed with a counter on collision)."""
        target = path.with_name(path.name + ".corrupt")
        n = 1
        while target.exists():
            target = path.with_name(f"{path.name}.corrupt.{n}")
            n += 1
        os.replace(path, target)
        return target.name

    def _recover_manifest(self, report: RecoveryReport) -> None:
        try:
            raw = self.manifest_path.read_bytes()
        except FileNotFoundError:
            return  # fresh state dir (or pre-first-checkpoint crash)
        try:
            doc = json.loads(raw.decode("utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            where = self._quarantine_file(self.manifest_path)
            raise CorruptJournalError(
                f"{self.manifest_path}: not valid JSON ({exc}); "
                f"quarantined to {where}", quarantined=where)
        if doc.get("format") != MANIFEST_FORMAT \
                or doc.get("version") != MANIFEST_VERSION:
            where = self._quarantine_file(self.manifest_path)
            raise CorruptJournalError(
                f"{self.manifest_path}: unrecognised manifest "
                f"format/version; quarantined to {where}",
                quarantined=where)
        if doc.get("checksum") != content_checksum(doc):
            where = self._quarantine_file(self.manifest_path)
            raise CorruptJournalError(
                f"{self.manifest_path}: content checksum mismatch; "
                f"quarantined to {where}", quarantined=where)
        self._checkpoint_seq = self._seq = int(doc.get("seq", 0))
        for entry_doc in doc.get("entries", []):
            entry = EntryState.from_doc(entry_doc)
            self._entries[entry.name] = entry

    def _recover_journal(self, report: RecoveryReport) -> None:
        try:
            data = self.journal_path.read_bytes()
        except FileNotFoundError:
            return
        records, good_end, error = _scan_journal(data)
        if error is not None:
            where = self._quarantine_file(self.journal_path)
            raise CorruptJournalError(
                f"{self.journal_path}: {error} (mid-journal damage, "
                f"not a torn tail); quarantined to {where} — the "
                f"catalog recovers from the last checkpoint on the "
                f"next start", quarantined=where)
        replayed = 0
        last_seq = self._checkpoint_seq
        for doc in records:
            seq = int(doc.get("seq", 0))
            if seq <= self._checkpoint_seq:
                # A checkpoint landed between manifest swap and journal
                # truncation when the process died: already folded in.
                continue
            if seq <= last_seq:
                where = self._quarantine_file(self.journal_path)
                raise CorruptJournalError(
                    f"{self.journal_path}: non-monotonic seq {seq} "
                    f"after {last_seq}; quarantined to {where}",
                    quarantined=where)
            last_seq = seq
            self._apply_locked(doc)
            replayed += 1
        self._seq = max(self._seq, last_seq)
        report.checkpoint_seq = self._checkpoint_seq
        report.replayed_records = replayed
        self._records_since_checkpoint = replayed
        if good_end < len(data):
            torn = len(data) - good_end
            with open(self.journal_path, "ab") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
            report.truncated_bytes = torn
            report.notes.append(
                f"truncated {torn} torn trailing byte(s) — the "
                f"in-flight mutation was never acknowledged")

    def _apply_locked(self, doc: dict) -> None:
        op = doc.get("op")
        name = doc.get("name")
        if op == "create":
            self._entries[name] = EntryState(
                name=name, index_id=int(doc["index_id"]),
                scheme=doc["scheme"],
                quota=dict(doc.get("quota") or {}))
        elif op == "install":
            entry = self._entries.get(name)
            index_id = int(doc["index_id"])
            if entry is None or entry.index_id != index_id:
                if index_id != DEFAULT_INDEX_ID:
                    # The install of an entry dropped meanwhile replays
                    # as a no-op: the drop is the winning mutation.
                    return
                # The default entry is installed without an explicit
                # create record.
                entry = EntryState(name=name, index_id=index_id,
                                   scheme=doc["scheme"])
                self._entries[name] = entry
            entry.scheme = doc["scheme"]
            entry.generation = int(doc["generation"])
            entry.label_bytes = int(doc.get("label_bytes", 0))
            entry.artifact = doc.get("artifact")
        elif op == "quota":
            entry = self._entries.get(name)
            if entry is not None:
                # A quota record for a since-dropped entry replays as a
                # no-op: the drop is the later, winning mutation.
                entry.quota = dict(doc.get("quota") or {})
        elif op == "drop":
            self._entries.pop(name, None)
        # Unknown ops from a future version replay as no-ops rather
        # than bricking recovery.

    # -- read side ------------------------------------------------------
    def entry(self, name: str) -> EntryState | None:
        with self._lock:
            return self._entries.get(name)

    def entries(self) -> list[EntryState]:
        with self._lock:
            return list(self._entries.values())

    def next_generation(self, name: str) -> int:
        with self._lock:
            entry = self._entries.get(name)
            return (entry.generation + 1) if entry is not None else 1

    # -- mutation records ----------------------------------------------
    def record_create(self, name: str, *, index_id: int, scheme: str,
                      quota: dict | None = None) -> None:
        """Journal a tenant creation (fsynced before returning)."""
        with self._lock:
            self._append_locked({
                "op": "create", "name": name, "index_id": index_id,
                "scheme": scheme, "quota": dict(quota or {})})
            self._entries[name] = EntryState(
                name=name, index_id=index_id, scheme=scheme,
                quota=dict(quota or {}))
            self._maybe_checkpoint_locked()

    def commit_install(self, index, name: str, *, index_id: int,
                       scheme: str, label_bytes: int) -> int:
        """Make ``index`` the next durable generation of ``name``;
        returns that generation.

        The commit of every build, load and reload: the artifact (the
        image bytes ``index`` is served from) is saved first, then the
        fsynced ``install`` record that names it — the commit point.
        Callers install the new generation in memory and acknowledge
        their client only after this returns, so an acknowledged install
        survives any crash; a crash before the record leaves an
        unreferenced artifact that recovery removes.
        """
        generation = self.next_generation(name)
        artifact = self.save_index(index, name, generation)
        self.record_install(name, index_id=index_id, scheme=scheme,
                            generation=generation,
                            label_bytes=label_bytes, artifact=artifact)
        return generation

    def record_install(self, name: str, *, index_id: int, scheme: str,
                       generation: int, label_bytes: int,
                       artifact: str | None) -> None:
        """Journal a new live generation (fsynced before returning);
        :meth:`commit_install` is the caller that keeps the ordering.
        Raises :class:`IndexBuildError` for a tenant dropped first (the
        check holds the lock, so it cannot race :meth:`record_drop`)."""
        doc = {"op": "install", "name": name, "index_id": index_id,
               "scheme": scheme, "generation": generation,
               "label_bytes": label_bytes, "artifact": artifact}
        with self._lock:
            entry = self._entries.get(name)
            if index_id != DEFAULT_INDEX_ID and (
                    entry is None or entry.index_id != index_id):
                raise IndexBuildError(
                    f"index {name!r} was dropped before its install "
                    f"was journaled")
            self._append_locked(doc)
            self._apply_locked(doc)
            self._maybe_checkpoint_locked()

    def record_quota(self, name: str, quota: dict) -> None:
        """Journal a quota replacement (fsynced before returning).

        Journal-first like every mutation: the gateway only applies
        the new limits in memory after this returns, so an
        acknowledged quota survives a crash-restart.
        """
        doc = {"op": "quota", "name": name, "quota": dict(quota)}
        with self._lock:
            self._append_locked(doc)
            self._apply_locked(doc)
            self._maybe_checkpoint_locked()

    def record_drop(self, name: str) -> None:
        """Journal a tenant drop (fsynced before returning)."""
        with self._lock:
            self._append_locked({"op": "drop", "name": name})
            self._entries.pop(name, None)
            self._maybe_checkpoint_locked()

    def _append_locked(self, doc: dict) -> None:
        if self._journal is None:
            raise CorruptJournalError(
                "DurableState.recover() must run before mutations")
        doc = dict(doc)
        doc["seq"] = self._seq + 1
        self._journal.write(_encode_record(doc))
        self._journal.flush()
        os.fsync(self._journal.fileno())
        self._seq += 1
        self._appended += 1
        self._records_since_checkpoint += 1

    def _maybe_checkpoint_locked(self) -> None:
        # Called by the record_* methods *after* applying the record
        # in memory — the checkpoint must fold in the very mutation
        # that tripped the interval, or truncation would lose it.
        if self._records_since_checkpoint >= self.checkpoint_interval:
            self._checkpoint_locked()

    # -- artifacts ------------------------------------------------------
    def save_index(self, index, name: str, generation: int) -> str:
        """Atomically save ``index`` as ``name``'s ``generation``
        artifact; returns the state-dir-relative path to journal."""
        relative = f"{INDEX_DIR}/{name}-g{generation}.idx"
        save_dual_index(index, self.state_dir / relative)
        return relative

    def quarantine_artifact(self, relative: str) -> str:
        """Rename a damaged artifact to ``*.corrupt`` (satellite of
        recovery: load failures must never take the service down)."""
        with self._lock:
            return self._quarantine_file(self.artifact_path(relative))

    def _gc_artifacts_locked(self, *, drop_future: bool) -> list[str]:
        """Remove artifacts no durable entry can ever load again.

        Keeps, per entry, generations in
        ``[generation - retain + 1, generation]`` plus — unless
        ``drop_future`` (recovery, when no install can be in flight) —
        any *newer* generation, which is an in-progress save that has
        not reached its journal commit yet.  ``*.corrupt`` quarantines
        are never touched; stray ``*.tmp`` files from a crashed
        atomic write are swept during recovery.
        """
        index_dir = self.state_dir / INDEX_DIR
        removed = []
        for child in sorted(index_dir.iterdir()):
            if child.name.endswith(".corrupt") \
                    or ".corrupt." in child.name:
                continue
            if child.name.endswith(".tmp"):
                if drop_future:
                    child.unlink(missing_ok=True)
                    removed.append(child.name)
                continue
            name, gen = parse_artifact_name(child.name) or (None, 0)
            if name is None:
                continue  # not ours; leave it alone
            entry = self._entries.get(name)
            keep = False
            if entry is not None:
                floor = entry.generation - self.retain_generations + 1
                keep = gen >= floor and (not drop_future
                                         or gen <= entry.generation)
            if not keep:
                child.unlink(missing_ok=True)
                removed.append(child.name)
        return removed

    # -- checkpointing --------------------------------------------------
    def checkpoint(self) -> None:
        """Fold the catalog into the manifest and truncate the journal.

        Also runs automatically every ``checkpoint_interval`` journal
        appends.  Atomic: the manifest swap is tmp+fsync+rename, and a
        crash between the swap and the journal truncation is harmless
        because replay skips records with ``seq`` at or below the
        manifest's.
        """
        with self._lock:
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        doc = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "seq": self._seq,
            "entries": [entry.as_doc()
                        for entry in self._entries.values()],
        }
        doc["checksum"] = content_checksum(doc)
        write_atomic(json.dumps(doc).encode("utf-8"), self.manifest_path)
        if self._journal is not None:
            os.ftruncate(self._journal.fileno(), 0)
            os.fsync(self._journal.fileno())
        self._checkpoint_seq = self._seq
        self._records_since_checkpoint = 0
        self._checkpoints += 1
        self._gc_artifacts_locked(drop_future=False)

    # -- introspection --------------------------------------------------
    def status(self) -> dict:
        """The durability block served by ``stats``/``catalog list``."""
        with self._lock:
            try:
                journal_bytes = self.journal_path.stat().st_size
            except OSError:
                journal_bytes = 0
            index_dir = self.state_dir / INDEX_DIR
            artifacts = quarantined = 0
            for root in (self.state_dir, index_dir):
                for child in root.iterdir():
                    if child.is_dir():
                        continue
                    if ".corrupt" in child.name:
                        quarantined += 1
                    elif root is index_dir \
                            and parse_artifact_name(child.name):
                        artifacts += 1
            return {
                "state_dir": str(self.state_dir),
                "recovered": self.recovered,
                "recovery_seconds": self.recovery_seconds,
                "seq": self._seq,
                "checkpoint_seq": self._checkpoint_seq,
                "journal_records": self._records_since_checkpoint,
                "journal_bytes": journal_bytes,
                "checkpoint_interval": self.checkpoint_interval,
                "checkpoints": self._checkpoints,
                "appended_records": self._appended,
                "entries": len(self._entries),
                "artifacts": artifacts,
                "quarantined": quarantined,
            }

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None


# -- boot-time catalog restore ------------------------------------------

@dataclass
class BootCatalog:
    """What :func:`restore_catalog` hands the CLI bootstrap: one
    :class:`~repro.server.tenancy.EntryRow` per entry, whose ``index``
    is ``None`` for a registered-but-empty entry (never installed, or
    its artifact was quarantined)."""

    default: EntryRow
    tenants: list = field(default_factory=list)
    #: Human-readable boot notes (restored generations, fresh builds).
    notes: list = field(default_factory=list)
    #: Degraded-mode reasons (quarantined artifacts): ``state.degraded``.
    degraded: list = field(default_factory=list)


def _load_entry_index(state: DurableState, snap: EntryState,
                      boot: BootCatalog):
    """Load one entry's artifact, quarantining any file the loader
    refuses — damaged, or a ``.json`` index from an older release:
    neither may fail startup."""
    if snap.artifact is None:
        return None
    path = state.artifact_path(snap.artifact)
    try:
        return load_dual_index(path)
    except FileNotFoundError:
        boot.degraded.append(
            f"index {snap.name!r}: artifact {snap.artifact} is "
            f"missing; entry restored empty")
        return None
    except IndexBuildError as exc:
        where = state.quarantine_artifact(snap.artifact)
        boot.degraded.append(
            f"index {snap.name!r}: unloadable artifact quarantined to "
            f"{INDEX_DIR}/{where} ({exc})")
        return None


def restore_catalog(state: DurableState, *,
                    default_factory: Callable[[], tuple],
                    ) -> BootCatalog:
    """Turn recovered :class:`EntryState` metadata into live indexes.

    ``default_factory`` lazily builds/loads the default index from the
    CLI's graph arguments; it is only invoked when the state dir has
    no durable default generation or that generation's artifact is
    corrupt (rebuild fallback) and must return ``(index, scheme)``.
    A fresh default is frozen to its image, saved + journaled here, so
    the *next* start restores it without the factory.

    Tenant entries with quarantined/missing artifacts come back with
    ``index=None`` — registered but empty (queries answer
    ``unknown_index``-style errors until the operator rebuilds) — and
    a degraded reason in ``state.degraded``, never a startup failure.
    """
    started = time.monotonic()
    boot = BootCatalog(default=None,  # type: ignore[arg-type]
                       degraded=state.degraded)
    snaps = {snap.index_id: snap for snap in state.entries()}
    default_snap = snaps.pop(DEFAULT_INDEX_ID, None)
    default_index = (_load_entry_index(state, default_snap, boot)
                     if default_snap is not None else None)
    if default_index is not None:
        boot.default = _row(default_snap, default_index)
        boot.notes.append(
            f"default index restored at generation "
            f"{default_snap.generation}")
    else:
        # Fresh state dir, or the durable default was quarantined:
        # (re)build from the CLI graph and make it durable now.
        index, scheme = default_factory()
        index = as_image(index)
        label_bytes = index_label_bytes(index)
        generation = state.commit_install(
            index, DEFAULT_INDEX, index_id=DEFAULT_INDEX_ID,
            scheme=scheme, label_bytes=label_bytes)
        boot.default = EntryRow(DEFAULT_INDEX, DEFAULT_INDEX_ID, scheme,
                                generation, label_bytes=label_bytes,
                                index=index)
        boot.notes.append(
            f"default index built fresh as generation {generation}")

    boot.tenants = [_row(snap, _load_entry_index(state, snap, boot))
                    for _, snap in sorted(snaps.items())]
    if boot.tenants:
        loaded = sum(1 for t in boot.tenants if t.index is not None)
        boot.notes.append(
            f"restored {len(boot.tenants)} tenant(s), "
            f"{loaded} with live indexes")
    if state.recovery_seconds is not None:
        state.recovery_seconds += time.monotonic() - started
    return boot


def _row(snap: EntryState, index) -> EntryRow:
    return EntryRow(snap.name, snap.index_id, snap.scheme, snap.generation,
                    dict(snap.quota) or None,
                    snap.label_bytes if index is not None else 0,
                    index=index)
