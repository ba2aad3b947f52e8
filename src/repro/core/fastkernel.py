"""Buffer-reusing query kernel — the serving stack's fast path.

:class:`~repro.core.base.LabelArrays.query_pairs` is built for Python
callers: list pairs in, fresh numpy arrays at every step, Python bools
out.  Served traffic doesn't need any of that — the binary wire
protocol (:mod:`repro.server.binproto`) delivers batches as packed
``(u32 src, u32 dst)`` byte payloads and wants packed bitmaps back, so
the whole request can stay inside preallocated numpy buffers:

* ``np.frombuffer`` views the frame payload in place (zero copies for
  a single-frame flush; coalesced flushes are gathered into one
  reusable staging buffer);
* node ids resolve through the dense lookup table of
  :meth:`~repro.core.base.LabelArrays.dense_lookup` with ``np.take``
  into reused index buffers;
* the scheme kernel runs **in place** — Dual-I via
  :meth:`~repro.core.dual_i.DualILabelArrays.query_components_into`
  (interval containment + TLC probe with zero fresh allocations, the
  matrix gathered at its stored cell width),
  Dual-II via
  :meth:`~repro.core.dual_ii.DualIILabelArrays.query_components_into`
  (interval containment + rank-table probes of the TLC search tree,
  staged through a reused encoded-probe buffer), other schemes via
  their ordinary ``query_components`` copied into the answer buffer;
* the reply bitmap is ``np.packbits`` straight off the answer buffer —
  no intermediate Python bool lists.

An optional C extension (:mod:`repro.core._fastkernel`, built with
``REPRO_FAST_KERNEL=1 python setup.py build_ext --inplace``) replaces
the Dual-I inner loop with a single compiled pass that releases the
GIL.  The pure-python path is always available and bit-for-bit
identical — the 51-graph differential harness
(``tests/test_fastkernel.py``) asserts all paths against BFS ground
truth and against ``query_pairs``.  Setting ``REPRO_FAST_KERNEL=0``
disables the compiled path at runtime even when built.

Thread safety: a kernel owns one buffer set guarded by ``self.lock``;
:meth:`run_frames` and :meth:`query_ids` serialise on it.  The serving
gateway runs one kernel per query-executor thread population (which PR
3 fixed at one thread), so the lock is uncontended there.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

import numpy as np

from repro.core.base import LabelArrays
from repro.core.dual_i import DualILabelArrays
from repro.core.dual_ii import DualIILabelArrays
from repro.exceptions import QueryError

__all__ = ["FastKernel", "compiled_available"]

#: Minimum buffer capacity (queries); growth doubles from here.
_MIN_CAPACITY = 4096

# Cached import of the optional C extension (``False`` = not tried).
_EXT: object | None | bool = False


def _import_ext():
    global _EXT
    if _EXT is False:
        try:
            from repro.core import _fastkernel as ext  # built artefact
            _EXT = ext
        except ImportError:
            _EXT = None
    return _EXT


def compiled_available() -> bool:
    """Whether the optional C extension is importable."""
    return _import_ext() is not None


def _compiled_enabled() -> bool:
    """Runtime gate: ``REPRO_FAST_KERNEL=0`` switches the compiled
    path off even when the extension is built."""
    return os.environ.get("REPRO_FAST_KERNEL", "") != "0"


class FastKernel:
    """Reusable-buffer batch evaluator over one :class:`LabelArrays`.

    Parameters
    ----------
    arrays:
        The label-array view to evaluate against.  Must expose a dense
        node-id lookup (``arrays.dense_lookup() is not None``) — i.e.
        the node space is small non-negative integers, which is exactly
        the u32 node-id model of the binary wire protocol.  Use
        :meth:`from_arrays` to get ``None`` instead of an exception for
        unsupported array views.
    capacity:
        Initial buffer capacity in queries; buffers double as needed
        and are never shrunk.
    use_compiled:
        ``None`` (default) auto-selects the C extension when it is
        importable, the scheme is Dual-I, and ``REPRO_FAST_KERNEL`` is
        not ``"0"``.  ``True`` requires it (``RuntimeError`` if
        unavailable); ``False`` forces the pure-python path — the knob
        the differential tests use to pin each path down.
    """

    def __init__(self, arrays: LabelArrays, *,
                 capacity: int = _MIN_CAPACITY,
                 use_compiled: bool | None = None) -> None:
        lookup = arrays.dense_lookup()
        if lookup is None:
            raise ValueError(
                "FastKernel requires a dense integer node space "
                "(arrays.dense_lookup() returned None)")
        self._arrays = arrays
        self._lookup = lookup
        self._lookup_size = lookup.shape[0]
        self._complete = arrays.lookup_complete
        self._inplace = isinstance(arrays, DualILabelArrays)
        self._rank = isinstance(arrays, DualIILabelArrays)
        ext = None
        if use_compiled is None:
            if self._inplace and _compiled_enabled():
                ext = _import_ext()
        elif use_compiled:
            if not self._inplace:
                raise RuntimeError(
                    "the compiled kernel only covers Dual-I arrays, "
                    f"got {type(arrays).__name__}")
            ext = _import_ext()
            if ext is None:
                raise RuntimeError(
                    "repro.core._fastkernel is not built; run "
                    "REPRO_FAST_KERNEL=1 python setup.py build_ext "
                    "--inplace")
        self._ext = ext
        self.lock = threading.Lock()
        self._cap = 0
        self._ensure(capacity)

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, arrays: LabelArrays | None,
                    **kwargs) -> "FastKernel | None":
        """A kernel for ``arrays``, or ``None`` when unsupported
        (no array view at all, or a non-dense node space)."""
        if arrays is None:
            return None
        if arrays.dense_lookup() is None:
            return None
        return cls(arrays, **kwargs)

    @property
    def compiled(self) -> bool:
        """Whether this kernel dispatches to the C extension."""
        return self._ext is not None

    @property
    def mode(self) -> str:
        """``"compiled"``, ``"inplace"``, ``"rank"`` or ``"generic"``
        — which evaluation path this kernel runs (stats / bench
        label).  ``"rank"`` is Dual-II's in-place path: interval
        containment plus rank-table probes of the TLC search tree."""
        if self._ext is not None:
            return "compiled"
        if self._inplace:
            return "inplace"
        return "rank" if self._rank else "generic"

    # ------------------------------------------------------------------
    def _ensure(self, n: int) -> None:
        if n <= self._cap:
            return
        cap = max(_MIN_CAPACITY, 1 << (n - 1).bit_length())
        self._qbuf = np.empty(2 * cap, dtype="<u4")
        self._cu = np.empty(cap, dtype=np.int64)
        self._cv = np.empty(cap, dtype=np.int64)
        # np.take gathers only into its source's dtype (TLC cells too).
        self._scratch = {name: np.empty(cap, dtype) for name, dtype in (
            ("c1", np.int32), ("c2", np.int32), ("c3", np.int32),
            ("i1", np.int64), ("i2", np.int64), ("i3", np.int64),
            ("b1", bool), ("b2", bool))}
        if self._inplace:
            for name in ("m1", "m2"):
                self._scratch[name] = np.empty(cap, self._arrays.matrix.dtype)
        if self._rank:
            # Dual-II's encoded-probe staging buffer (two probes per
            # query — see TLCSearchTree.positive_diff_encoded_into).
            self._scratch["p"] = np.empty(2 * cap, dtype=np.int64)
        self._out = np.empty(cap, dtype=bool)
        self._cap = cap

    def _map_into(self, ids: np.ndarray, out: np.ndarray) -> None:
        """Gather component ids for ``ids`` into ``out``.

        Raises :class:`QueryError` naming the first offending node id
        when one falls outside the lookup table (this is how "node id
        >= n" on the wire surfaces as a clean ``unknown_node`` reply).
        """
        if ids.size:
            if ids.dtype.kind == "i" and int(ids.min()) < 0:
                raise QueryError(int(ids[int(np.argmax(ids < 0))]))
            if int(ids.max()) >= self._lookup_size:
                bad = ids >= self._lookup_size
                raise QueryError(int(ids[int(np.argmax(bad))]))
        np.take(self._lookup, ids, out=out)
        if not self._complete and out.size and int(out.min()) < 0:
            raise QueryError(int(ids[int(np.argmax(out < 0))]))

    def _answer_into(self, src: np.ndarray, dst: np.ndarray,
                     n: int) -> np.ndarray:
        """Evaluate ``n`` queries into the answer buffer; returns the
        live ``bool`` view (valid until the next kernel call)."""
        cu = self._cu[:n]
        cv = self._cv[:n]
        self._map_into(src, cu)
        self._map_into(dst, cv)
        out = self._out[:n]
        arrays = self._arrays
        if self._ext is not None:
            self._ext.eval_dual_i(
                cu, cv, arrays.starts, arrays.ends, arrays.label_x,
                arrays.label_y, arrays.label_z, arrays._flat_matrix,
                arrays._ncols, arrays._flat_matrix.itemsize,
                out.view(np.uint8))
        elif self._inplace or self._rank:
            arrays.query_components_into(cu, cv, out, self._scratch)
        else:
            np.copyto(out, arrays.query_components(cu, cv))
        return out

    # ------------------------------------------------------------------
    def run_frames(self, frames: Sequence[bytes]
                   ) -> tuple[list[bytes], int, int]:
        """Answer a flush of binary ``BATCH`` payloads in one pass.

        ``frames`` is a list of packed ``(u32 src, u32 dst)`` payloads
        (each ``8 * n_i`` bytes, already length-validated by the
        gateway).  Returns ``(bitmaps, total, positives)`` where
        ``bitmaps[i]`` is the LSB-first packed answer bitmap for frame
        ``i`` — ready for :func:`repro.server.binproto.encode_answers`
        without any intermediate Python lists.

        A single-frame flush is fully zero-copy: the payload is viewed
        with ``np.frombuffer`` and strided column views feed the kernel
        directly.  Multi-frame flushes are gathered into the reusable
        staging buffer so one kernel pass covers the whole flush.

        Raises
        ------
        QueryError
            When a node id is outside the index; the gateway reruns
            frames in isolation so one bad frame cannot poison its
            flush-mates.
        """
        counts = [len(f) >> 3 for f in frames]
        total = sum(counts)
        if total == 0:
            return [b"" for _ in frames], 0, 0
        with self.lock:
            self._ensure(total)
            if len(frames) == 1:
                flat = np.frombuffer(frames[0], dtype="<u4",
                                     count=2 * total)
            else:
                qbuf = self._qbuf
                offset = 0
                for payload, n in zip(frames, counts):
                    if not n:
                        continue
                    qbuf[offset:offset + 2 * n] = np.frombuffer(
                        payload, dtype="<u4", count=2 * n)
                    offset += 2 * n
                flat = qbuf[:2 * total]
            out = self._answer_into(flat[0::2], flat[1::2], total)
            positives = int(np.count_nonzero(out))
            bitmaps: list[bytes] = []
            offset = 0
            for n in counts:
                if n:
                    bitmaps.append(
                        np.packbits(out[offset:offset + n],
                                    bitorder="little").tobytes())
                else:
                    bitmaps.append(b"")
                offset += n
        return bitmaps, total, positives

    def query_ids(self, src, dst) -> np.ndarray:
        """Boolean answers for aligned integer node-id vectors.

        The array-in/array-out face of the kernel (benchmarks, tests,
        embedders).  Returns a **view into the reusable answer buffer**
        — copy it before the next call on this kernel if you need it to
        survive.
        """
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.ndim != 1 or dst.ndim != 1 or src.shape != dst.shape:
            raise ValueError(
                f"src/dst must be aligned 1-D vectors, got shapes "
                f"{src.shape} and {dst.shape}")
        if src.dtype.kind not in "iu" or dst.dtype.kind not in "iu":
            raise ValueError("src/dst must be integer arrays")
        n = src.shape[0]
        if n == 0:
            return np.zeros(0, dtype=bool)
        with self.lock:
            self._ensure(n)
            return self._answer_into(np.ascontiguousarray(src),
                                     np.ascontiguousarray(dst), n)
