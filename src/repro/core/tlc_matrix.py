"""The TLC (transitive link count) matrix — paper Sections 3.2–3.3.

Definition 1 introduces the TLC function

    ``N(x, y)`` = number of links ``i -> [j, k)`` in the transitive link
    table with ``i >= x`` and ``y ∈ [j, k)``.

Theorem 2 reduces the non-tree reachability test between nodes labeled
``[a₁, b₁)`` and ``[a₂, b₂)`` to ``N(a₁, a₂) − N(b₁, a₂) > 0``.  Storing
``N`` for all coordinate pairs would cost ``O(n²)``, so the paper grids
the plane at the coordinates where ``N`` can change and *snaps* query
points onto the grid:

* **x** snaps *up* to the smallest link tail ``>= x`` (``N`` is constant
  between consecutive tails, falling only when ``x`` passes one);
* **y** snaps via Lemma 2 to the start label of the lowest tree ancestor
  with a non-tree incoming edge, which is precomputed per node as the
  ``z`` component of the non-tree labels.

The grid therefore needs only ``|X| × |Y| ≤ t × t`` stored values
(Algorithm 1).  We add a zero border row and column so the "−" sentinel of
Definition 2 maps to the last index and Theorem 3's subtraction needs no
branches.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable

import numpy as np

from repro.core.linktable import LinkTable

__all__ = ["TLCMatrix", "build_tlc_matrix", "pack_tlc_matrix",
           "tlc_function"]


class TLCMatrix:
    """Gridded TLC values with sentinel border (Algorithm 1's output).

    ``matrix[ix, iy]`` is ``N(xs[ix], ys[iy])``; row ``len(xs)`` and column
    ``len(ys)`` are zero and represent the "−" sentinel.
    """

    __slots__ = ("xs", "ys", "matrix")

    def __init__(self, xs: tuple[int, ...], ys: tuple[int, ...],
                 matrix: np.ndarray) -> None:
        if matrix.shape != (len(xs) + 1, len(ys) + 1):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match grid "
                f"({len(xs)}+1, {len(ys)}+1)")
        self.xs = xs
        self.ys = ys
        self.matrix = matrix

    @property
    def sentinel_x(self) -> int:
        """Row index representing the "−" x label."""
        return len(self.xs)

    @property
    def sentinel_y(self) -> int:
        """Column index representing the "−" y label."""
        return len(self.ys)

    def value(self, ix: int, iy: int) -> int:
        """Stored TLC value at grid indices (sentinels allowed)."""
        return int(self.matrix[ix, iy])

    def lookup(self, x: int, y_index: int) -> int:
        """``N(x, ys[y_index])`` for an arbitrary x coordinate.

        Snaps ``x`` up to the next grid column; beyond the last tail the
        count is zero (the sentinel row).
        """
        ix = bisect_left(self.xs, x)
        return int(self.matrix[ix, y_index])

    @property
    def nbytes(self) -> int:
        """Memory footprint of the stored matrix."""
        return int(self.matrix.nbytes)

    def __repr__(self) -> str:
        return (f"TLCMatrix(|X|={len(self.xs)}, |Y|={len(self.ys)}, "
                f"bytes={self.nbytes})")


def build_tlc_matrix(transitive_table: LinkTable) -> TLCMatrix:
    """Build the TLC matrix from a *closed* link table (Algorithm 1).

    Sweeps the links in decreasing tail order, maintaining a counter array
    ``C[y]`` (one slot per grid row): each link ``i -> [j, k)`` increments
    the contiguous slice of grid rows falling inside ``[j, k)``; after all
    links with tail ``i`` are applied, ``C`` *is* the matrix row for
    ``x = i``.  Runs in ``O(|T| + t²)``.
    """
    xs, ys = transitive_table.xs, transitive_table.ys
    matrix = np.zeros((len(xs) + 1, len(ys) + 1), dtype=np.int64)
    if not transitive_table.links:
        return TLCMatrix(xs, ys, matrix)

    counts = np.zeros(len(ys), dtype=np.int64)
    by_tail_desc = sorted(transitive_table.links,
                          key=lambda link: link.tail, reverse=True)
    pos = 0
    total = len(by_tail_desc)
    while pos < total:
        tail = by_tail_desc[pos].tail
        while pos < total and by_tail_desc[pos].tail == tail:
            link = by_tail_desc[pos]
            lo = bisect_left(ys, link.head_start)
            hi = bisect_left(ys, link.head_end)
            if lo < hi:
                counts[lo:hi] += 1
            pos += 1
        matrix[transitive_table.index_x(tail), :len(ys)] = counts
    return TLCMatrix(xs, ys, matrix)


def pack_tlc_matrix(tlc: TLCMatrix) -> TLCMatrix:
    """Shrink a TLC matrix to the smallest integer dtype that fits.

    Property 2: TLC values never exceed ``t(t+1)/2``, so each cell needs
    only ``2·log₂ t`` bits.  numpy arrays cannot store sub-byte cells,
    but choosing the minimal unsigned dtype realises most of that bound
    in practice (uint8 for ``t ≤ 22``, uint16 for ``t ≤ 361``, …) — an
    8x saving over the int64 working representation on sparse graphs.

    The packed matrix is value-identical; queries are unchanged.
    """
    max_value = int(tlc.matrix.max()) if tlc.matrix.size else 0
    for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
        if max_value <= np.iinfo(dtype).max:
            return TLCMatrix(tlc.xs, tlc.ys,
                             tlc.matrix.astype(dtype, copy=False))
    raise AssertionError("unreachable: int64 always fits")


def tlc_function(transitive_table: LinkTable) -> Callable[[int, int], int]:
    """Return a brute-force ``N(x, y)`` evaluator (Definition 1 verbatim).

    ``O(|T|)`` per call — the reference oracle the gridded structures are
    tested against.
    """
    links = transitive_table.links

    def N(x: int, y: int) -> int:
        return sum(1 for link in links
                   if link.tail >= x and link.covers(y))

    return N
