"""Shared-memory publication of built indexes (multi-worker serving).

The dual-labeling arrays are immutable once built, so a machine-local
worker fleet never needs one copy per process: the parent publishes the
index into one ``multiprocessing.shared_memory`` segment and every
worker attaches read-only.  The segment payload *is* the
:mod:`repro.core.serialize` index image — the same bytes
:func:`~repro.core.serialize.save_dual_index` writes to disk — framed
by a tiny fixed header::

    offset  size  field
    0       8     magic ``b"RPROSHM1"``
    8       8     payload length, unsigned little-endian
    16      n     the index image

so the attach path reuses the exact validation stack of the file
loader: bad magic, a length that overruns the segment, a failed sha256
or labels that break an invariant all raise the typed
:class:`~repro.exceptions.CorruptIndexError` — a worker can never
answer queries from garbage memory.

Lifecycle: the *publisher* owns the segment and must
:meth:`~PublishedIndex.unlink` it (the fleet does this when a new
generation replaces an old one, and for every live generation at
shutdown).  *Attachers* copy the payload once, detach, and view the
copy's sections in place, so a worker holds no mapping afterwards and
a SIGKILL'd worker cannot leak anything — the segment belongs to the
parent either way.  Segment names carry the :data:`SEGMENT_PREFIX` so leak
checks can scan ``/dev/shm`` for strays (:func:`list_segments`).

On Python < 3.13 ``SharedMemory`` has no ``track`` parameter and
*attaching* registers the segment with the ``resource_tracker`` as if
the attacher owned it; without the :func:`_untrack` below, the tracker
would unlink a segment still serving other workers as soon as one
attacher exits, and would print spurious leak warnings for every
killed worker.
"""

from __future__ import annotations

import os
import secrets
import struct
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

from repro.core.serialize import dumps_index, loads_index
from repro.exceptions import CorruptIndexError

__all__ = [
    "MAGIC",
    "SEGMENT_PREFIX",
    "PublishedIndex",
    "attach_index",
    "list_segments",
    "publish_index",
    "stale_segments",
    "sweep_stale_segments",
]

MAGIC = b"RPROSHM1"

#: Every repro segment name starts with this, so tests and CI can scan
#: ``/dev/shm`` for leaked segments without touching anyone else's.
SEGMENT_PREFIX = "repro-idx-"

_HEADER = struct.Struct("<8sQ")


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Withdraw ``shm`` from the resource tracker (see module doc)."""
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


class PublishedIndex:
    """Owner-side handle of one published index segment.

    ``name`` is what workers pass to :func:`attach_index`.  The handle
    is a context manager; leaving the block unlinks the segment.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 payload_bytes: int) -> None:
        self._shm = shm
        self.name = shm.name
        #: Total segment size (header + payload).
        self.size = shm.size
        #: Size of the index image alone.
        self.payload_bytes = payload_bytes
        self._unlinked = False

    def close(self) -> None:
        """Detach this process's mapping (the segment persists)."""
        try:
            self._shm.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def unlink(self) -> None:
        """Remove the segment; attached workers keep their copies."""
        if self._unlinked:
            return
        self._unlinked = True
        self.close()
        # An attacher sharing this process's resource tracker (a fleet
        # worker) withdrew the name via :func:`_untrack`; re-register —
        # an idempotent set add — so the unregister inside ``unlink``
        # finds the entry instead of logging a tracker KeyError.
        try:
            resource_tracker.register(self._shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "PublishedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PublishedIndex(name={self.name!r}, "
                f"payload_bytes={self.payload_bytes})")


def publish_index(index, *, name: str | None = None) -> PublishedIndex:
    """Copy ``index``'s image (:func:`~repro.core.serialize.dumps_index`;
    a loaded index's own bytes) into a fresh shared-memory segment.

    ``name`` defaults to ``repro-idx-<pid>-<nonce>``; the fleet passes
    explicit per-generation names (``...-g0``, ``...-g1``) so a swap is
    observable in ``/dev/shm``.

    Raises
    ------
    IndexBuildError
        If the index's scheme is not serialisable
        (see :func:`repro.core.serialize.dumps_index`).
    """
    payload = dumps_index(index)
    if name is None:
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
    shm = shared_memory.SharedMemory(
        name=name, create=True, size=_HEADER.size + len(payload))
    shm.buf[:_HEADER.size] = _HEADER.pack(MAGIC, len(payload))
    shm.buf[_HEADER.size:_HEADER.size + len(payload)] = payload
    return PublishedIndex(shm, len(payload))


def attach_index(name: str):
    """Load the index published under segment ``name``.

    The payload is copied once and the mapping detached before
    returning; the index's columns are views into that copy, so the
    caller holds no shared-memory resource — only the publisher ever
    unlinks.

    Raises
    ------
    FileNotFoundError
        When no segment of that name exists (already unlinked, or a
        worker raced a generation swap — callers retry with the
        current generation).
    CorruptIndexError
        On bad magic, a payload length overrunning the segment, or any
        damage the image's checksum or label check catches.
    """
    shm = shared_memory.SharedMemory(name=name)
    _untrack(shm)
    try:
        if shm.size < _HEADER.size:
            raise CorruptIndexError(
                f"shm:{name}: segment of {shm.size} bytes is smaller "
                f"than the {_HEADER.size}-byte header")
        magic, length = _HEADER.unpack_from(shm.buf, 0)
        if magic != MAGIC:
            raise CorruptIndexError(
                f"shm:{name}: bad magic {magic!r} "
                f"(expected {MAGIC!r})")
        if length > shm.size - _HEADER.size:
            raise CorruptIndexError(
                f"shm:{name}: truncated segment — header promises "
                f"{length} payload bytes, only "
                f"{shm.size - _HEADER.size} present")
        payload = bytes(shm.buf[_HEADER.size:_HEADER.size + length])
    finally:
        shm.close()
    return loads_index(payload, origin=f"shm:{name}")


def list_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live repro segments (``/dev/shm`` scan, sorted).

    The leak check of the test suite and CI: after a clean fleet
    shutdown this must be empty.  Returns ``[]`` on platforms without
    a ``/dev/shm``.
    """
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(entry.name for entry in root.iterdir()
                  if entry.name.startswith(prefix))


def _owner_pid(name: str, prefix: str = SEGMENT_PREFIX) -> "int | None":
    """The publishing pid embedded in a default-shaped segment name.

    Default and fleet names look like ``repro-idx-<pid>-<nonce>[...]``;
    explicitly named segments (tests, tooling) need not carry a pid and
    return ``None`` — the sweep never touches those.
    """
    if not name.startswith(prefix):
        return None
    head = name[len(prefix):].split("-", 1)[0]
    return int(head) if head.isdigit() else None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


def _is_repro_segment(name: str) -> bool:
    """Whether segment ``name`` carries the publication magic.

    The guard before any sweep unlink: a name-prefix collision from an
    unrelated program must never be deleted on our behalf.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    _untrack(shm)
    try:
        if shm.size < _HEADER.size:
            return False
        magic, _length = _HEADER.unpack_from(shm.buf, 0)
        return magic == MAGIC
    finally:
        shm.close()


def stale_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Segments whose publishing process no longer exists.

    A segment is *stale* when its name embeds an owner pid that is no
    longer alive **and** its header carries the publication
    :data:`MAGIC` — the double check (pid liveness + magic) means a
    recycled pid or a foreign name-prefix collision is never flagged.
    Segments published under explicit non-pid names are skipped.
    """
    return [name for name in list_segments(prefix)
            if (pid := _owner_pid(name, prefix)) is not None
            and not _pid_alive(pid)
            and _is_repro_segment(name)]


def sweep_stale_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Unlink segments leaked by a dead publisher; return their names.

    ``serve --workers`` only unlinks its generations on a clean
    shutdown — a SIGKILLed or OOM-killed parent leaves its segments
    behind in ``/dev/shm``.  The fleet runs this sweep at startup so
    one abnormal exit never turns into a permanent leak.  Only
    segments :func:`stale_segments` proves dead-owned are touched.
    """
    removed = []
    for name in stale_segments(prefix):
        try:
            shm = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):  # pragma: no cover - race
            continue
        _untrack(shm)
        try:
            shm.close()
            resource_tracker.register(shm._name, "shared_memory")
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - swept elsewhere
            continue
        except Exception:  # pragma: no cover - tracker internals moved
            continue
        removed.append(name)
    return removed
