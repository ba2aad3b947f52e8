"""The TLC search tree — paper Section 4 (Dual-II's lookup structure).

Dual-II drops the per-node non-tree labels, so queries arrive with *raw*
coordinates and the structure itself must do the snapping.  Without the
``z`` labels there is no Lemma-2 shortcut, so the tree keeps a row at
every y coordinate where the set of alive links can change: each
transitive link ``i -> [j, k)`` is alive on ``[j, k)``, so rows sit at all
``j`` *and* ``k`` values — at most ``2t`` rows, as the paper states.

* The **upper layer** is the sorted array of row y values; a query binary-
  searches for the largest row ``<= y₀`` (between rows the alive set is
  constant, and below the first row it is empty).
* Each **lower-layer row** stores the sorted multiset of tails of the
  links alive there; ``N(x₀, y₀)`` is the number of tails ``>= x₀``,
  found by one more binary search.  (The paper's mini-trees with collapsed
  duplicate TLC values are equivalent to this sorted-array encoding: both
  store one entry per distinct breakpoint and answer in ``O(log t)``.)

The rows are stored CSR, as the index image holds them: ``row_ys``,
``row_offsets`` (row ``r`` is ``row_tails[row_offsets[r]:row_offsets[r +
1]]``) and the concatenated ``row_tails``.

Total query cost: ``O(log t)``.  Space: ``O(t²)`` worst case, but
typically far less because most links are alive in few rows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

import numpy as np

from repro.core.base import INT_BYTES
from repro.core.linktable import LinkTable

__all__ = ["TLCSearchTree", "build_tlc_search_tree"]


class TLCSearchTree:
    """Two-layer search structure evaluating ``N(x, y)`` in O(log t)."""

    __slots__ = ("row_ys", "row_offsets", "row_tails", "_lists", "_vec",
                 "_lut")

    #: Direct-address acceleration cap: the dense rank tables of
    #: :meth:`_direct_tables` are only built while ``rows * base`` stays
    #: under this many entries (int32 ⇒ ≤ 16 MiB); larger coordinate
    #: spaces keep the ``searchsorted`` path.
    _LUT_MAX_ENTRIES = 4_194_304

    def __init__(self, row_ys, row_offsets, row_tails) -> None:
        self.row_ys = np.asarray(row_ys, dtype=np.int32)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.row_tails = np.asarray(row_tails, dtype=np.int32)
        if len(self.row_offsets) != len(self.row_ys) + 1:
            raise ValueError("row_offsets needs len(row_ys) + 1 entries")
        self._lists: tuple | None = None
        self._vec: tuple | None = None
        self._lut: tuple | None | bool = False

    @property
    def rows(self) -> list[list[int]]:
        """Each row's sorted tails as a list (made on first use)."""
        return self._scalar()[1]

    def _scalar(self) -> tuple:
        """List copies of both layers, made on the first scalar query:
        ``bisect`` over lists beats numpy on one probe."""
        if self._lists is None:
            tails = self.row_tails.tolist()
            bounds = self.row_offsets.tolist()
            self._lists = (self.row_ys.tolist(), [
                tails[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
        return self._lists

    def count(self, x: int, y: int) -> int:
        """The TLC function ``N(x, y)`` for arbitrary coordinates."""
        row_ys, rows = self._lists or self._scalar()
        r = bisect_right(row_ys, y) - 1
        if r < 0:
            return 0
        row = rows[r]
        return len(row) - bisect_left(row, x)

    def _vectorised(self) -> tuple:
        """Flat numpy encoding of the two layers (built once).

        Both binary searches of :meth:`count` become ``np.searchsorted``
        calls: the upper layer is already a sorted array, and the flat
        tails become one globally sorted key array by encoding each as
        ``row_index * base + (tail - min_tail)`` with ``base`` wider
        than the tail value range — within-row order is preserved and
        rows occupy disjoint, increasing key bands.
        """
        if self._vec is None:
            row_ys = self.row_ys.astype(np.int64)
            flat = self.row_tails.astype(np.int64)
            if flat.size:
                min_tail = int(flat.min())
                base = int(flat.max()) - min_tail + 2
            else:
                min_tail, base = 0, 1
            row_index = np.repeat(np.arange(len(row_ys), dtype=np.int64),
                                  np.diff(self.row_offsets))
            keys = row_index * base + (flat - min_tail)
            self._vec = (row_ys, keys, min_tail, base)
        return self._vec

    def _direct_tables(self) -> tuple | None:
        """Dense rank tables replacing both binary searches (built once).

        ``np.searchsorted`` costs tens of nanoseconds per unsorted
        probe; within a compact coordinate space, precomputing every
        answer turns each search into a single gather.  ``row_lut[y]``
        is the upper-layer row index for ``0 <= y <= max(row_ys)``;
        ``key_lut[k]`` is the lower-layer insertion point for every
        encodable key.  Returns ``None`` (and the callers keep
        ``searchsorted``) beyond :data:`_LUT_MAX_ENTRIES`.
        """
        if self._lut is False:
            row_ys, keys, min_tail, base = self._vectorised()
            total = len(row_ys) * base
            if (keys.size == 0 or total > self._LUT_MAX_ENTRIES
                    or int(row_ys[-1]) + 1 > self._LUT_MAX_ENTRIES):
                self._lut = None
            else:
                row_lut = (np.searchsorted(
                    row_ys, np.arange(int(row_ys[-1]) + 1),
                    side="right") - 1).astype(np.int32)
                key_lut = np.searchsorted(
                    keys, np.arange(total), side="left").astype(np.int32)
                self._lut = (row_lut, key_lut)
        return self._lut

    def _row_search(self, ys: np.ndarray, row_ys: np.ndarray,
                    luts: tuple | None) -> np.ndarray:
        """Upper-layer row index per probe (``-1`` = before every row)."""
        if luts is None:
            return np.searchsorted(row_ys, ys, side="right") - 1
        row_lut = luts[0]
        r = row_lut[np.clip(ys, 0, row_lut.shape[0] - 1)]
        # The clip folds negative probes onto y == 0; restore their
        # true "before every row" answer.
        if ys.size and int(ys.min()) < 0:
            r = np.where(ys < 0, np.int32(-1), r)
        return r

    def _key_search(self, probes: np.ndarray, keys: np.ndarray,
                    luts: tuple | None) -> np.ndarray:
        """Lower-layer insertion point per encoded probe key."""
        if luts is None:
            return np.searchsorted(keys, probes, side="left")
        return luts[1][probes]

    def warm(self) -> "TLCSearchTree":
        """Eagerly build the vectorised encoding and rank tables.

        Serving layers call this at construction so the one-off
        flatten/LUT cost lands in setup rather than in the first
        batch's query timing.  Returns ``self`` for chaining.
        """
        self._vectorised()
        self._direct_tables()
        return self

    def row_plan(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(band, valid)`` encoding of reusable y-coordinates.

        ``band[i]`` is the key-space offset of the row answering
        ``ys[i]`` and ``valid[i]`` is ``False`` where ``ys[i]`` precedes
        every row (count 0).  Callers with a fixed coordinate universe —
        one entry per graph component, say — evaluate the row search
        once here and reuse the plan across every batch via
        :meth:`count_diff_encoded`.
        """
        ys = np.asarray(ys, dtype=np.int64)
        row_ys, keys, _min_tail, base = self._vectorised()
        if keys.size == 0 or ys.size == 0:
            return (np.zeros(ys.shape, dtype=np.int64),
                    np.zeros(ys.shape, dtype=bool))
        r = self._row_search(ys, row_ys, self._direct_tables())
        valid = r >= 0
        return np.where(valid, r, 0).astype(np.int64) * base, valid

    def x_encode(self, xs: np.ndarray) -> np.ndarray:
        """Key-space offsets of reusable x-coordinates (see
        :meth:`row_plan`); clipping keeps :meth:`count`'s answer for
        out-of-range x: below the band every entry counts, above it
        none."""
        xs = np.asarray(xs, dtype=np.int64)
        _row_ys, keys, min_tail, base = self._vectorised()
        if keys.size == 0:
            return np.zeros(xs.shape, dtype=np.int64)
        return np.clip(xs - min_tail, 0, base - 1)

    def count_diff_encoded(self, off_first: np.ndarray,
                           off_second: np.ndarray, band: np.ndarray,
                           valid: np.ndarray) -> np.ndarray:
        """Vectorised ``N(x_first, y) - N(x_second, y)`` per position,
        the form every Dual-II query needs (Theorem 2 tests ``N(a₁, a₂)
        − N(b₁, a₂) > 0``), over pre-encoded coordinates.

        ``off_*`` come from :meth:`x_encode` and ``(band, valid)`` from
        :meth:`row_plan`; both counts share the row, so the difference
        is the gap between two in-row insertion points — per-batch work
        reduces to one key search.
        """
        keys = self._vectorised()[1]
        if keys.size == 0 or band.size == 0:
            return np.zeros(band.shape, dtype=np.int64)
        probes = np.concatenate([band + off_first, band + off_second])
        pos = self._key_search(probes, keys, self._direct_tables())
        n = band.shape[0]
        return np.where(valid, pos[n:] - pos[:n].astype(np.int64), 0)

    def positive_diff_encoded_into(self, off_first: np.ndarray,
                                   off_second: np.ndarray,
                                   band: np.ndarray, valid: np.ndarray,
                                   out: np.ndarray,
                                   probes: np.ndarray) -> None:
        """``count_diff_encoded(...) > 0`` written into ``out``.

        The fast kernel's allocation-light form: the caller supplies the
        ``probes`` staging buffer (int64, length ``2 * n``) and the
        boolean ``out``; encoded probes are built with ``np.add(...,
        out=)`` and the sign test compares the two in-row insertion
        points directly, so no int64 difference array is materialised.
        The rank lookup itself (``searchsorted`` or the LUT gather) has
        no ``out=`` form and remains the one per-call allocation.
        """
        keys = self._vectorised()[1]
        n = band.shape[0]
        if keys.size == 0 or n == 0:
            out[:n] = False
            return
        np.add(band, off_first, out=probes[:n])
        np.add(band, off_second, out=probes[n:2 * n])
        pos = self._key_search(probes[:2 * n], keys,
                               self._direct_tables())
        # diff = pos[n:] - pos[:n]; only its sign matters here.
        np.greater(pos[n:], pos[:n], out=out)
        np.logical_and(out, valid, out=out)

    @property
    def num_rows(self) -> int:
        """Number of stored rows (``<= 2t``)."""
        return len(self.row_ys)

    @property
    def num_entries(self) -> int:
        """Total stored tail entries across all rows."""
        return len(self.row_tails)

    @property
    def nbytes(self) -> int:
        """Logical size: one int per row key and per stored entry."""
        return INT_BYTES * (len(self.row_ys) + self.num_entries)

    def __repr__(self) -> str:
        return (f"TLCSearchTree(rows={self.num_rows}, "
                f"entries={self.num_entries})")


def build_tlc_search_tree(transitive_table: LinkTable) -> TLCSearchTree:
    """Build the search tree from a *closed* link table.

    One sweep over the y axis: at each endpoint value, links ending there
    are removed before links starting there are added (half-open ``[j, k)``
    semantics), then the alive tail multiset is snapshot as that row.
    Rows whose alive multiset did not change (an ending link replaced by a
    starting link with the same tail) are collapsed into their
    predecessor.
    """
    events: dict[int, tuple[list[int], list[int]]] = {}
    for link in transitive_table.links:
        events.setdefault(link.head_start, ([], []))[0].append(link.tail)
        events.setdefault(link.head_end, ([], []))[1].append(link.tail)

    row_ys: list[int] = []
    offsets = [0]
    tails: list[int] = []
    alive: list[int] = []  # sorted multiset of tails
    last = None  # the previous row
    for y in sorted(events):
        starts, ends = events[y]
        for tail in ends:
            del alive[bisect_left(alive, tail)]
        for tail in starts:
            insort(alive, tail)
        if alive == last:
            # Alive multiset unchanged: extend the previous row's reign
            # instead of storing a duplicate (the paper's collapsing).
            continue
        last = list(alive)
        row_ys.append(y)
        tails += last
        offsets.append(len(tails))
    return TLCSearchTree(row_ys, offsets, tails)
