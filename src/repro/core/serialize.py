"""Index serialisation: one binary image for disk, /dev/shm and recovery.

A Dual-I or Dual-II index is fixed-width integers by construction
(paper §3), so it persists as one versioned little-endian *image* whose
sections are the index's own columns (layout table: docs/API.md).  The
file writer, the shared-memory publisher (:mod:`repro.core.shm`) and
durable artifacts (:mod:`repro.server.durability`) all write it, and
the server serves nothing else (:func:`as_image`).  Every
reader checks one sha256 over every byte after the digest, views the
sections with ``np.frombuffer`` and runs :func:`_check_labels`, a
vectorised, graph-free check of the paper's label invariants
(docs/THEORY.md).  Bytes that are not an image — a JSON index from an
older release among them — raise
:class:`~repro.exceptions.IndexBuildError` naming the fix; damage of
any kind raises :class:`~repro.exceptions.CorruptIndexError`, which the
server's reload and boot paths turn into degraded mode.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.base import DenseComponentMap, IndexStats
from repro.core.dual_i import DualIIndex
from repro.core.dual_ii import DualIIIndex
from repro.core.tlc_matrix import TLCMatrix, pack_tlc_matrix
from repro.core.tlc_searchtree import TLCSearchTree
from repro.exceptions import CorruptIndexError, IndexBuildError

__all__ = [
    "FORMAT_VERSION",
    "IMAGE_SCHEMES",
    "MAGIC",
    "as_image",
    "dumps_index",
    "load_dual_index",
    "loads_index",
    "save_dual_index",
    "write_atomic",
]

MAGIC = b"RPROIDX1"
FORMAT_VERSION = 1
#: The schemes an image holds, and so the only ones the server serves.
IMAGE_SCHEMES = ("dual-i", "dual-ii")

PathLike = Union[str, Path]

#: magic, sha256 of bytes [40:], version, section count, length, scheme.
_HEADER = struct.Struct("<8s32sIIQ8s")
#: name, dtype (numpy notation), ndim, pad, shape (2 dims), offset, size.
_ENTRY = struct.Struct("<16s8sII2QQQ")
_ALIGN = 64  # every section starts on a 64-byte boundary
#: The integer dtypes a section may have (numpy notation).
_DTYPES = {code.encode(): code for code in ("|u1", "<u2", "<u4", "<i4",
                                             "<i8")}

#: Node-list tags: each node's text is its type tag plus str()/repr().
_NODE_TAGS = {str: "s", int: "i", float: "f", bool: "b"}
_NODE_DECODERS = {"s": str, "i": int, "f": float,
                  "b": lambda text: text == "True"}

_STATS_FIELDS = ("num_nodes", "num_edges", "dag_nodes", "dag_edges",
                 "meg_edges", "t", "transitive_links")

_FIX = "re-create it with `repro-reach build GRAPH --save INDEX.idx`"


def write_atomic(data: bytes, path: PathLike) -> None:
    """Durably write ``data`` to ``path``, atomically — the pattern
    every on-disk artefact shares (index images, the durable-state
    manifest): a sibling temporary file, fsync, ``os.replace`` over the
    target, then fsync the directory so the rename itself survives
    power loss.  A process killed at any point leaves either the
    complete new file or the untouched previous one."""
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(dir=directory,
                                    prefix=target.name + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        # Never leave a partial sibling behind on exception.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # Persist the rename itself (directory entry) where supported.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - exotic filesystems
        pass


# -- writing ---------------------------------------------------------------

def _node_sections(index) -> list:
    """A dense int32 lookup when node names are small non-negative
    ints, else a tagged UTF-8 node list (int 1 and str "1" apart)."""
    lookup = index.label_arrays().dense_lookup()
    if lookup is not None:
        return [("node_lookup", lookup.astype(np.int32))]
    texts = []
    for node in index._component_of:
        tag = _NODE_TAGS.get(type(node))
        if tag is None:
            raise IndexBuildError(
                f"node {node!r} ({type(node).__name__}) cannot be "
                "saved; rename nodes to str/int first")
        texts.append((tag + (node if tag == "s" else repr(node)))
                     .encode("utf-8", "surrogatepass"))
    return [("node_offsets", np.cumsum([0] + [len(t) for t in texts])),
            ("node_text", np.frombuffer(b"".join(texts), dtype=np.uint8)),
            ("node_components", np.fromiter(
                index._component_of.values(), np.int32, len(texts)))]


def _sections(index) -> list:
    if isinstance(index, DualIIndex):
        tlc = index.tlc_matrix
        columns = ("starts", "ends", "label_x", "label_y", "label_z")
        scheme_sections = [
            ("tlc_xs", np.asarray(tlc.xs, dtype=np.int32)),
            ("tlc_ys", np.asarray(tlc.ys, dtype=np.int32)),
            ("tlc_matrix", pack_tlc_matrix(tlc).matrix)]
    elif isinstance(index, DualIIIndex):
        columns = ("starts", "ends")
        tree = index.search_tree
        scheme_sections = [(name, getattr(tree, name)) for name
                           in ("row_ys", "row_offsets", "row_tails")]
    else:
        raise IndexBuildError(
            f"only Dual-I and Dual-II indexes are serialisable, got "
            f"{type(index).__name__}")
    stats = index.stats()
    lines = [f"{name}={'' if value is None else value}" for name, value
             in ((name, getattr(stats, name)) for name in _STATS_FIELDS)]
    lines += [f"space_bytes.{key}={value}"
              for key, value in stats.space_bytes.items()]
    return (_node_sections(index)
            + [(name, getattr(index, "_" + name).astype(np.int32))
               for name in columns] + scheme_sections
            + [("stats", np.frombuffer("\n".join(lines).encode(), np.uint8))])


def _seal(image: bytearray) -> None:
    """Write the sha256 of ``image[40:]`` into its header."""
    image[8:40] = hashlib.sha256(memoryview(image)[40:]).digest()


def dumps_index(index) -> bytes:
    """The image bytes of a Dual-I or Dual-II ``index``: what the file
    writer and the shared-memory publisher both emit.  A loaded index
    returns the bytes it was loaded from, unchanged.

    Raises :class:`IndexBuildError` if the scheme is not serialisable
    or a node is not a str/int/float/bool.
    """
    if index.image is not None:
        return index.image
    sections = _sections(index)
    offsets = [_HEADER.size + len(sections) * _ENTRY.size]
    for _name, array in sections:  # every section 64-byte aligned
        offsets[-1] = -(-offsets[-1] // _ALIGN) * _ALIGN
        offsets.append(offsets[-1] + array.nbytes)
    image = bytearray(-(-offsets[-1] // _ALIGN) * _ALIGN)
    for k, ((name, array), start) in enumerate(zip(sections, offsets)):
        _ENTRY.pack_into(image, _HEADER.size + k * _ENTRY.size,
                         name.encode(), array.dtype.str.encode(),
                         array.ndim, 0, *(array.shape + (0, 0))[:2],
                         start, array.nbytes)
        np.frombuffer(image, dtype=array.dtype, count=array.size,
                      offset=start)[:] = array.reshape(-1)
    _HEADER.pack_into(image, 0, MAGIC, b"", FORMAT_VERSION, len(sections),
                      len(image), index.scheme_name.encode())
    _seal(image)
    return bytes(image)


def save_dual_index(index, path: PathLike) -> None:
    """Write a Dual-I or Dual-II ``index`` to ``path`` as an image,
    crash-safely (:func:`write_atomic`); raises as :func:`dumps_index`.
    """
    write_atomic(dumps_index(index), path)


# -- reading ---------------------------------------------------------------

def _read_sections(data, origin: str) -> tuple[str, dict]:
    """Verify an image's envelope and view its sections (read-only
    views over ``bytes``, writable over a ``bytearray``)."""
    def corrupt(problem):
        return CorruptIndexError(f"{origin}: {problem}")

    if bytes(data[:8]) != MAGIC:
        if bytes(data[:64]).lstrip()[:1] == b"{":
            raise IndexBuildError(
                f"{origin}: a JSON index document; this release reads "
                f"only binary index images ({MAGIC.decode()}) — {_FIX}")
        raise corrupt(f"not a repro index image (magic {bytes(data[:8])!r},"
                      f" expected {MAGIC!r}) — {_FIX}")
    if len(data) < _HEADER.size or _HEADER.unpack_from(data)[4] != len(data):
        raise corrupt(f"truncated image ({len(data)} bytes)")
    _magic, digest, version, count, length, scheme = \
        _HEADER.unpack_from(data)
    if hashlib.sha256(memoryview(data)[40:]).digest() != digest:
        raise corrupt("sha256 checksum mismatch — the image is corrupt")
    scheme = scheme.rstrip(b"\0").decode("ascii", "replace")
    if version != FORMAT_VERSION or scheme not in IMAGE_SCHEMES:
        raise IndexBuildError(
            f"{origin}: unsupported image version {version} or scheme "
            f"{scheme!r} (this release reads version {FORMAT_VERSION}) "
            f"— {_FIX}")
    table_end = _HEADER.size + count * _ENTRY.size
    if table_end > length:
        raise corrupt("section table overruns the image")
    sections = {}
    for k in range(count):
        name, dtype, ndim, _pad, rows, cols, start, size = \
            _ENTRY.unpack_from(data, _HEADER.size + k * _ENTRY.size)
        name = name.rstrip(b"\0").decode("ascii", "replace")
        dtype = np.dtype(_DTYPES.get(dtype.rstrip(b"\0"), "O"))
        shape = (rows, cols)[:ndim]
        if dtype.kind == "O" or ndim not in (1, 2) \
                or size != math.prod(shape) * dtype.itemsize \
                or start < table_end or start + size > length:
            raise corrupt(f"section {name!r} ({size} bytes at offset "
                          f"{start}) is malformed or overruns the "
                          f"{length}-byte image")
        sections[name] = np.frombuffer(
            data, dtype=dtype, count=size // dtype.itemsize,
            offset=start).reshape(shape)
    return scheme, sections


def _laminar(starts: np.ndarray, ends: np.ndarray) -> bool:
    """Whether ``[starts, ends)`` have distinct starts and nest or are
    disjoint: sorted by start, interval ``p`` covers positions
    ``[p, hi)`` and crosses one of them iff it ends past ``p``, so the
    family is laminar iff ``max(ends[p:hi]) <= ends[p]`` — range maxima
    of a sparse table built a level at a time, O(n log n)."""
    order = np.argsort(starts)
    s = starts[order].astype(np.int64)
    e = ends[order].astype(np.int64)
    if not (s[1:] > s[:-1]).all():
        return False
    lo = np.arange(s.size)
    hi = np.searchsorted(s, e)  # > lo, as every start < end
    level = np.frexp((hi - lo).astype(np.float64))[1] - 1  # floor(log2)
    table = e
    for k in range(int(level.max(initial=0)) + 1):
        if k:
            table = np.maximum(table[:-(1 << (k - 1))],
                               table[1 << (k - 1):])
        at = np.flatnonzero(level == k)
        if (np.maximum(table[lo[at]], table[hi[at] - (1 << k)])
                > e[at]).any():
            return False
    return True


def _check_labels(sections: dict, scheme: str, origin: str) -> None:
    """The paper's label invariants, checked without the graph:
    O(n log n + t²), modelled on GRAIL's ``integrityCheck()``.
    docs/THEORY.md maps each check to the lemma or theorem it
    enforces."""

    def column(name, length=None, ndim=1):
        array = sections.get(name)
        if array is None or array.ndim != ndim \
                or length not in (None, array.shape):
            raise CorruptIndexError(
                f"{origin}: no {name!r} section of shape {length}")
        return array

    def require(holds, invariant):
        if not holds:
            raise CorruptIndexError(
                f"{origin}: label invariant violated — {invariant}")

    def within(values, low, high):  # low <= values < high
        return values.size == 0 or (int(values.min()) >= low
                                    and int(values.max()) < high)

    def increasing(values):
        return bool((values[1:] > values[:-1]).all())

    def csr_offsets(offsets, total):  # 0, monotone, ``total``
        return offsets[:1].tolist() == [0] and offsets[-1:].tolist() == [
            total] and bool((offsets[1:] >= offsets[:-1]).all())

    starts = column("starts")
    n = len(starts)
    ends = column("ends", (n,))
    require((starts < ends).all(), "every interval has start < end")
    require(_laminar(starts, ends),
            "intervals nest or are disjoint (laminar, distinct starts)")
    if "node_lookup" in sections:
        ids, low = column("node_lookup"), -1  # -1: no node has this id
    else:
        offsets = column("node_offsets")
        require(csr_offsets(offsets, len(column("node_text"))),
                "node-list offsets are monotone and end at the text size")
        ids, low = column("node_components", (len(offsets) - 1,)), 0
    require(within(ids, low, n), f"node-table component ids lie in [0, {n})")
    if scheme == "dual-i":
        xs, ys = column("tlc_xs"), column("tlc_ys")
        row, col = len(xs), len(ys)
        matrix = column("tlc_matrix", (row + 1, col + 1), ndim=2)
        x, y, z = (column(name, (n,))
                   for name in ("label_x", "label_y", "label_z"))
        require(increasing(xs) and increasing(ys),
                "the TLC grid coordinates strictly increase")
        require(within(x, 0, row + 1) and within(y, 0, row + 1)
                and (x <= y).all(), f"0 <= x <= y <= {row} (sentinel row)")
        require(within(z, 0, col + 1), f"0 <= z <= {col} (sentinel column)")
        require(not matrix[row].any() and not matrix[:, col].any(),
                "the sentinel border row and column are zero")
        for lo in range(0, row, 256):  # row blocks bound the temporaries
            hi = min(lo + 256, row)
            require(not (matrix[lo + 1:hi + 1] > matrix[lo:hi]).any(),
                    "N is non-increasing down every column")
    else:
        row_ys = column("row_ys")
        offsets = column("row_offsets", (len(row_ys) + 1,))
        tails = column("row_tails")
        require(increasing(row_ys), "search-tree row_ys strictly increase")
        require(csr_offsets(offsets, len(tails)),
                "row offsets are monotone and end at the tail count")
        # Tails may only descend where a new row starts.
        require(np.isin(np.flatnonzero(tails[1:] < tails[:-1]) + 1,
                        offsets).all(),
                "each search-tree row's tails are sorted")


def _index(scheme: str, sections: dict, origin: str):
    if "node_lookup" in sections:
        component_of = DenseComponentMap(sections["node_lookup"])
    else:
        text = sections["node_text"].tobytes()
        bounds = sections["node_offsets"].tolist()
        component_of = {}
        for k, cid in enumerate(sections["node_components"].tolist()):
            item = text[bounds[k]:bounds[k + 1]].decode("utf-8",
                                                        "surrogatepass")
            try:
                component_of[_NODE_DECODERS[item[:1]](item[1:])] = cid
            except (KeyError, ValueError):
                raise CorruptIndexError(
                    f"{origin}: undecodable node #{k}") from None
    try:
        pairs = dict(line.partition("=")[::2] for line in
                     sections["stats"].tobytes().decode().splitlines())
        stats = IndexStats(
            scheme=scheme, space_bytes={
                key[12:]: int(value) for key, value in pairs.items()
                if key.startswith("space_bytes.")},
            **{key: int(value) if value else None
               for key, value in pairs.items() if key in _STATS_FIELDS})
    except (KeyError, UnicodeDecodeError, ValueError, TypeError) as exc:
        raise CorruptIndexError(
            f"{origin}: malformed stats section ({exc!r})") from None
    columns = (sections["starts"], sections["ends"])
    if scheme == "dual-ii":
        tree = TLCSearchTree(sections["row_ys"], sections["row_offsets"],
                             sections["row_tails"])
        return DualIIIndex(component_of, tree, *columns, stats)
    tlc = TLCMatrix(tuple(sections["tlc_xs"].tolist()),
                    tuple(sections["tlc_ys"].tolist()),
                    sections["tlc_matrix"])
    return DualIIndex(component_of, tlc, *columns, sections["label_x"],
                      sections["label_y"], sections["label_z"], stats)


def loads_index(data: bytes, origin: str = "<memory>"):
    """Restore an index from image bytes; its columns are read-only
    views into ``data`` (kept as ``index.image`` when it is ``bytes``).
    Checks and errors as :func:`load_dual_index`; ``origin`` (a path,
    ``shm:<name>``) names the source in them."""
    scheme, sections = _read_sections(data, origin)
    _check_labels(sections, scheme, origin)
    index = _index(scheme, sections, origin)
    if isinstance(data, bytes):
        index.image = data
    return index


def as_image(index):
    """``index`` in its served form: a loaded index as it is, a built
    one as ``loads_index(dumps_index(index))`` — label-checked, with no
    pipeline or graph.  Raises as those two do."""
    return index if index.image is not None else \
        loads_index(dumps_index(index))


def load_dual_index(path: PathLike):
    """Load a Dual-I or Dual-II index written by :func:`save_dual_index`.

    Raises
    ------
    CorruptIndexError
        When the image is truncated, fails its checksum, has a section
        overrunning the file, or holds labels that break an invariant.
    IndexBuildError
        When the file is not an image this release reads (a JSON index
        from an older release, an unknown version or scheme); the
        message names the fix.
    """
    return loads_index(Path(path).read_bytes(), origin=str(path))
