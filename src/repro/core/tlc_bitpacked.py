"""Bit-packed TLC matrix — Property 2 realised at bit granularity.

Property 2: "Any value of N(·,·) can be stored in 2·log t bits", because
TLC counts never exceed ``t(t+1)/2``.  :func:`pack_tlc_matrix` (in
:mod:`repro.core.tlc_matrix`) approximates this at *byte* granularity;
this module goes all the way: :class:`BitPackedTLCMatrix` stores every
cell in exactly ``b = max(1, ceil(log₂(max_value + 1)))`` bits inside a
contiguous ``uint64`` word array, with shift-and-mask reads.

Cells never straddle word boundaries (each 64-bit word holds
``64 // b`` cells; the remainder bits are padding), so a read is one
array access plus two shifts — still O(1), just with a larger constant
than the plain array.  The payoff on sparse graphs is substantial: at
``t = 1000`` with small counts, 10 bits/cell versus 64 is a 6.4×
reduction of the dominant index component.

This is an exact drop-in for the query side: :meth:`value` matches
:class:`TLCMatrix.value` cell for cell (asserted by tests), and
:class:`DualIIndex` accepts it via ``matrix_backend="bitpacked"``.
"""

from __future__ import annotations

import numpy as np

from repro.core.tlc_matrix import TLCMatrix, pack_tlc_matrix

__all__ = ["BitPackedTLCMatrix", "bitpack_tlc_matrix"]


class BitPackedTLCMatrix:
    """A read-only TLC matrix with ``b``-bit cells in uint64 words."""

    __slots__ = ("xs", "ys", "bits_per_cell", "_cells_per_word",
                 "_num_cols", "_words", "_mask")

    def __init__(self, xs: tuple[int, ...], ys: tuple[int, ...],
                 bits_per_cell: int, num_cols: int,
                 words: np.ndarray) -> None:
        if not 1 <= bits_per_cell <= 64:
            raise ValueError(
                f"bits_per_cell must be in [1, 64], got {bits_per_cell}")
        self.xs = xs
        self.ys = ys
        self.bits_per_cell = bits_per_cell
        self._cells_per_word = 64 // bits_per_cell
        self._num_cols = num_cols
        self._words = words
        self._mask = (1 << bits_per_cell) - 1

    # ------------------------------------------------------------------
    def value(self, ix: int, iy: int) -> int:
        """Cell read: same semantics as :meth:`TLCMatrix.value`."""
        flat = ix * self._num_cols + iy
        word_index, slot = divmod(flat, self._cells_per_word)
        word = int(self._words[word_index])
        return (word >> (slot * self.bits_per_cell)) & self._mask

    @property
    def sentinel_x(self) -> int:
        """Row index of the "−" sentinel."""
        return len(self.xs)

    @property
    def sentinel_y(self) -> int:
        """Column index of the "−" sentinel."""
        return len(self.ys)

    @property
    def nbytes(self) -> int:
        """Payload size of the packed word array."""
        return int(self._words.nbytes)

    @property
    def matrix(self) -> np.ndarray:
        """The cells unpacked at :func:`pack_tlc_matrix`'s cell width."""
        shifts = np.arange(self._cells_per_word, dtype=np.uint64) \
            * np.uint64(self.bits_per_cell)
        cells = (self._words[:, None] >> shifts) & np.uint64(self._mask)
        cells = cells.reshape(-1)[:(len(self.xs) + 1) * self._num_cols]
        return pack_tlc_matrix(TLCMatrix(
            self.xs, self.ys, cells.reshape(-1, self._num_cols))).matrix

    def to_rows(self) -> list[list[int]]:
        """Unpack into nested lists (for the fast scalar query path)."""
        return self.matrix.tolist()

    def __repr__(self) -> str:
        return (f"BitPackedTLCMatrix(|X|={len(self.xs)}, "
                f"|Y|={len(self.ys)}, bits={self.bits_per_cell}, "
                f"bytes={self.nbytes})")


def bitpack_tlc_matrix(tlc: TLCMatrix) -> BitPackedTLCMatrix:
    """Pack a :class:`TLCMatrix` into a :class:`BitPackedTLCMatrix`."""
    matrix = tlc.matrix
    max_value = int(matrix.max()) if matrix.size else 0
    bits = max(1, max_value.bit_length())
    cells_per_word = 64 // bits
    num_rows, num_cols = matrix.shape
    total_cells = num_rows * num_cols
    num_words = -(-total_cells // cells_per_word)
    words = np.zeros(num_words, dtype=np.uint64)

    flat = matrix.ravel()
    # Pack slot by slot, vectorised over all words at once.
    for slot in range(cells_per_word):
        chunk = flat[slot::cells_per_word]
        if chunk.size == 0:
            break
        padded = np.zeros(num_words, dtype=np.uint64)
        padded[:chunk.size] = chunk.astype(np.uint64)
        words |= padded << np.uint64(slot * bits)
    return BitPackedTLCMatrix(tlc.xs, tlc.ys, bits, num_cols, words)
