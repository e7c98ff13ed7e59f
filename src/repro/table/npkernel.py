"""Numpy word-array kernel for the packed-truth-table backend.

The int kernel stores a function over ``n`` variables as one
``2**n``-bit Python integer.  That is compact and branch-free, but
arbitrary-precision shifts cost time linear in the *whole* table, so
every cofactor at width 16 re-walks 65536 bits of bigint limbs.  This
kernel stores the same table as a little-endian array of
``numpy.uint64`` words instead: bitwise ops vectorise across words,
cofactors on word-aligned variables become array slicing, and popcounts
use the hardware instruction, which lifts the practical width ceiling
from :data:`~repro.table.manager.MAX_TABLE_WIDTH` (16) to
:data:`MAX_NUMPY_TABLE_WIDTH` (20).

numpy stays strictly optional (``pip install repro-brel[accel]``): the
module imports without it, :func:`available` reports whether the kernel
can run, and :class:`TableManager`'s ``kernel="auto"`` policy silently
falls back to the int kernel when numpy is absent.  Only an *explicit*
``kernel="numpy"`` request raises without numpy.

Bit layout matches the int kernel exactly: minterm ``i`` lives at bit
``i & 63`` of word ``i >> 6``, so ``to_int``/``from_int`` are plain
little-endian byte copies and fingerprints/minterms computed through
the manager's handle-level walks are identical across kernels.
"""

from __future__ import annotations

import os
from typing import Optional

try:  # pragma: no cover - exercised via the import-guard test
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Width ceiling when the numpy kernel is (or may be) in play.  2**20
#: bits = 128 KiB per table: big enough to prove the scaling claim,
#: small enough that interning keys (``tobytes``) stay cheap.
MAX_NUMPY_TABLE_WIDTH = 20

#: ``kernel="auto"`` switches from the int kernel to numpy only above
#: this width: below it the bigint ops fit in a few limbs and numpy's
#: per-call overhead dominates.
NUMPY_CROSSOVER_WIDTH = 14

#: Environment override consulted when ``TableManager`` is built
#: without an explicit ``kernel=`` argument.  Values: ``int``,
#: ``numpy``, ``auto``.  Non-strict: ``numpy`` without numpy installed
#: falls back to the int kernel silently (CI sets this to pin the
#: numpy kernel against the brute-force oracle).
KERNEL_ENV_VAR = "REPRO_TABLE_KERNEL"

#: Valid values for the ``kernel`` knob (``None`` = honour the
#: environment, then default to ``auto``).
KERNEL_CHOICES = (None, "int", "numpy", "auto")

_WORD_BITS = 64

#: 64-bit masks selecting the ``var = 0`` half-positions for the six
#: in-word variables (var 0 alternates single bits, var 5 alternates
#: 32-bit halves).  Same constants as the int kernel's zero-masks,
#: truncated to one word.
_WORD_ZERO_MASKS = (
    0x5555555555555555,
    0x3333333333333333,
    0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF,
    0x0000FFFF0000FFFF,
    0x00000000FFFFFFFF,
)


def available() -> bool:
    """True when numpy importable, i.e. the kernel can actually run."""
    return _np is not None


def resolve_kernel(kernel: Optional[str], width: int) -> str:
    """Resolve the ``kernel`` knob to a concrete ``"int"``/``"numpy"``.

    Policy:

    - explicit ``"int"`` / ``"numpy"`` are strict — ``"numpy"``
      without numpy installed raises;
    - ``None`` consults :data:`KERNEL_ENV_VAR` *non-strictly* (an
      env-requested numpy degrades to int when numpy is missing),
      defaulting to ``"auto"``;
    - ``"auto"`` picks numpy when it is importable and the width is
      past :data:`NUMPY_CROSSOVER_WIDTH`, and is the only mode that
      *requires* numpy for widths beyond the int kernel's ceiling.

    The width *cap* is enforced by the caller before resolution and
    depends only on the explicit ``kernel`` argument, never on the
    environment — ``TableManager(max_width=17)`` must fail the same
    way on every machine.
    """
    from .manager import MAX_TABLE_WIDTH  # local import: no cycle at load

    strict = kernel in ("int", "numpy")
    if kernel is None:
        env = os.environ.get(KERNEL_ENV_VAR, "")
        kernel = env if env in ("int", "numpy", "auto") else "auto"
    if kernel == "int":
        return "int"
    if kernel == "numpy":
        if available():
            return "numpy"
        if strict:
            raise ValueError(
                "kernel='numpy' requires numpy "
                "(pip install repro-brel[accel])")
        kernel = "auto"  # env asked for numpy; degrade like auto
    # kernel == "auto"
    if width > MAX_TABLE_WIDTH:
        if available():
            return "numpy"
        raise ValueError(
            "table widths beyond %d require the numpy kernel "
            "(pip install repro-brel[accel])" % MAX_TABLE_WIDTH)
    if available() and width > NUMPY_CROSSOVER_WIDTH:
        return "numpy"
    return "int"


class NumpyKernel:
    """Packed-table primitives over little-endian ``uint64`` arrays.

    The owning :class:`~repro.table.manager.TableManager` keeps all
    handle-level structure (interning, op caches, structural views);
    this class only knows raw tables.  ``size`` is the current number
    of minterm positions (a power of two, grown by :meth:`grow`); while
    ``size < 64`` the single word is masked down to ``size`` bits so
    interning keys stay canonical.
    """

    name = "numpy"

    def __init__(self) -> None:
        if _np is None:
            raise ValueError(
                "the numpy table kernel requires numpy "
                "(pip install repro-brel[accel])")
        self.size = 1
        self._rebuild()

    def _rebuild(self) -> None:
        size = self.size
        self.words = max(1, size >> 6)
        if size >= _WORD_BITS:
            word_full = 0xFFFFFFFFFFFFFFFF
        else:
            word_full = (1 << size) - 1
        self.full = _np.full(self.words, word_full, dtype=_np.uint64)
        self.full.flags.writeable = False
        self._zero_masks = {}
        self._bytes = self.words * 8

    # -- lifecycle ----------------------------------------------------

    def grow(self) -> None:
        """Double ``size`` (one more variable); masks are rebuilt."""
        self.size <<= 1
        self._rebuild()

    def widen(self, table):
        """Re-express a pre-``grow`` table in the doubled space.

        Mirrors the int kernel's ``t | (t << half)``: the new top
        variable is don't-care, so both halves hold the old table.
        """
        half = self.size >> 1
        if half >= _WORD_BITS:
            return _np.concatenate((table, table))
        return (table | (table << _np.uint64(half))) & self.full

    # -- raw bitwise ops ----------------------------------------------

    def band(self, a, b):
        return a & b

    def bor(self, a, b):
        return a | b

    def bxor(self, a, b):
        return a ^ b

    def bandnot(self, a, b):
        return a & ~b & self.full

    def bnot(self, a):
        return ~a & self.full

    def ite_raw(self, a, b, c):
        return (a & b) | (~a & self.full & c)

    # -- predicates ---------------------------------------------------

    def is_zero(self, a) -> bool:
        return not _np.any(a)

    def is_full(self, a) -> bool:
        return _np.array_equal(a, self.full)

    def equal(self, a, b) -> bool:
        return _np.array_equal(a, b)

    def is_subset(self, a, b) -> bool:
        """``a -> b``, i.e. no bit of ``a`` outside ``b``."""
        return not _np.any(a & ~b)

    def key(self, table) -> bytes:
        """Canonical interning key (little-endian words are canonical
        because out-of-range bits are always masked off)."""
        return table.tobytes()

    # -- per-variable structure ---------------------------------------

    def zero_mask(self, var: int):
        """Mask of positions where ``var = 0`` (a table of ``!var``)."""
        mask = self._zero_masks.get(var)
        if mask is None:
            if var < 6:
                mask = self.full & _np.uint64(_WORD_ZERO_MASKS[var])
            else:
                mask = self.full.copy()
                mask.reshape(-1, 2, 1 << (var - 6))[:, 1, :] = 0
            mask.flags.writeable = False
            self._zero_masks[var] = mask
        return mask

    def literal(self, var: int, positive: bool):
        if positive:
            return self.full & ~self.zero_mask(var)
        return self.zero_mask(var)

    def cofactor(self, table, var: int, value: bool):
        """Restrict ``var`` to ``value``; result independent of it."""
        if var < 6:
            shift = _np.uint64(1 << var)
            zero = self.zero_mask(var)
            if value:
                half = (table >> shift) & zero
            else:
                half = table & zero
            return half | (half << shift)
        blocks = table.reshape(-1, 2, 1 << (var - 6))
        half = blocks[:, 1 if value else 0, :]
        out = _np.empty_like(table)
        paired = out.reshape(-1, 2, 1 << (var - 6))
        paired[:, 0, :] = half
        paired[:, 1, :] = half
        return out

    def _halves(self, table, var: int):
        if var < 6:
            shift = _np.uint64(1 << var)
            zero = self.zero_mask(var)
            return table & zero, (table >> shift) & zero, shift
        blocks = table.reshape(-1, 2, 1 << (var - 6))
        return blocks[:, 0, :], blocks[:, 1, :], None

    def _spread(self, half, var: int, shift):
        if shift is not None:
            return half | (half << shift)
        out = _np.empty(self.words, dtype=_np.uint64)
        paired = out.reshape(-1, 2, 1 << (var - 6))
        paired[:, 0, :] = half
        paired[:, 1, :] = half
        return out

    def exists1(self, table, var: int):
        lo, hi, shift = self._halves(table, var)
        return self._spread(lo | hi, var, shift)

    def forall1(self, table, var: int):
        lo, hi, shift = self._halves(table, var)
        return self._spread(lo & hi, var, shift)

    def depends(self, table, var: int) -> bool:
        if var < 6:
            shift = _np.uint64(1 << var)
            return bool(_np.any((table ^ (table >> shift))
                                & self.zero_mask(var)))
        blocks = table.reshape(-1, 2, 1 << (var - 6))
        return not _np.array_equal(blocks[:, 0, :], blocks[:, 1, :])

    # -- scalar views -------------------------------------------------

    def popcount(self, table) -> int:
        if hasattr(_np, "bitwise_count"):
            return int(_np.bitwise_count(table).sum())
        return bin(self.to_int(table)).count("1")

    def get_bit(self, table, position: int) -> int:
        word = int(table[position >> 6])
        return (word >> (position & 63)) & 1

    def from_int(self, value: int):
        table = _np.frombuffer(
            value.to_bytes(self._bytes, "little"), dtype="<u8")
        if table.dtype != _np.uint64:  # pragma: no cover - BE hosts
            table = table.astype(_np.uint64)
        return table

    def to_int(self, table) -> int:
        if table.dtype != _np.dtype("<u8"):  # pragma: no cover - BE
            table = table.astype("<u8")
        return int.from_bytes(table.tobytes(), "little")


__all__ = [
    "KERNEL_CHOICES",
    "KERNEL_ENV_VAR",
    "MAX_NUMPY_TABLE_WIDTH",
    "NUMPY_CROSSOVER_WIDTH",
    "NumpyKernel",
    "available",
    "resolve_kernel",
]
