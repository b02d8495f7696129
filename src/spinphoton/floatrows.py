"""CSV rows built as byte tables: a float table with the bytes ``"%.17g" % x``
writes per cell, and the ``sample`` CSV's index and label rows.

``%`` formats one float per call. Here each cell ``%.17g`` writes in fixed
notation, ``1e-4 <= |x| < 1e15``, is rounded to 17 significant digits on
whole arrays, exactly: for ``10**k <= |x| < 10**(k + 1)`` the digits are
``round(|x| * 10**q)``, ``q = 16 - k``, half to even as ``%`` rounds. The
power is an exact double (``q <= 21``), and Dekker's two-product, on
Veltkamp's halves of both factors, gives the product as ``hi + lo`` with no
rounding error at all; ``hi`` is an even integer there, so the digits are
``hi + rint(lo)``. Every other cell (zero, exponent notation, not finite) is
written by ``%`` itself.

The 17 digits are split in int64 once, at ``10**8``, and then into groups of
4 in uint32. Each cell's text goes into a slot of ``_WIDTH`` bytes, built by
one gather of quads (4 ASCII bytes each): a quad of ``_PAD``, the digits, and
the quad of the cell's separator. The slot is finished by three gathers from
one table of bytes per slot, indexed by k, sign and the count of trailing
zeros: the digits that stay, the digits before the point, which come from a
copy of the slots one byte to the left, and the constant bytes (``'.'``,
``'0'``, ``'-'``). Unused bytes hold ``_PAD``, which the join of the rows
drops. The table is formatted ``_BLOCK_CELLS`` cells at a time, so that each
block's arrays stay small and are reused by the next.

``indexed_rows`` writes ``str(i) + ending`` per row the same way: each index
in a slot of digits from the same 4-digit table, its leading zeros ``_PAD``,
then the row's ending, and the rows joined by the same drop of ``_PAD``.
"""
from __future__ import annotations

import functools

import numpy as np

# A slot: a quad of _PAD, then 5 quads of digits (the first '000' and the
# first digit, at byte 7), then the separator's quad. Its first _TEXT bytes
# hold the widest %.17g text (-1.9762625833649862e-323).
_QUADS = 7
_WIDTH = 4 * _QUADS
_TEXT = _WIDTH - 4
_PAD = 0  # a byte no text holds, dropped when the rows are joined
_EMPTY, _COMMA, _NEWLINE = range(10 ** 4, 10 ** 4 + 3)  # quads after the digits'
_VELTKAMP = 2.0 ** 27 + 1  # splits a double into two halves of 26 bits
_BLOCK_CELLS = 8192  # cells formatted at once: 64 KiB a float array


@functools.cache
def _quads():
    """The 4 ASCII digits of each n < 10**4 as one uint32, built on first use."""
    digits = np.empty((10,) * 4 + (4,), np.uint8)
    for j in range(4):  # digit j of n is its index along axis j
        digits[..., j] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - j))
    return digits.view(np.uint32).ravel()


@functools.cache
def _tables():
    """The lookup tables, built on first use:

    - ``_quads()``, then a quad of ``_PAD`` and one of each separator (at
      ``_EMPTY``, ``_COMMA`` and ``_NEWLINE``), and how many of each digit
      quad's digits are trailing zeros (4 for n = 0);
    - 10**q for q = 0..21 (21 for a k one too low), and its two halves;
    - by slot row ``34 * q + 17 * sign + trailing zeros`` (k = 16 - q; the
      rows for q = 0, 1 are never read), the bytes of a slot as 7 uint32:
      where the digits and the separator stay, where digits come from one
      byte to the right, and the constant bytes ('.', for k < 0 the '0'
      before it, and '-'). Only the bytes the text keeps are set: the
      fraction's trailing zeros are dropped, and the point with them when
      nothing follows it."""
    separators = np.zeros((3, 4), np.uint8)
    separators[1:, 0] = ord(","), ord("\n")
    quads = np.concatenate([_quads(), separators.view(np.uint32).ravel()])
    trailing = np.zeros(10 ** 4, np.intp)
    for step in (10, 100, 1000, 10 ** 4):
        trailing[::step] += 1
    tens = np.array([float(10 ** q) for q in range(22)])
    k = 16 - np.arange(21)[:, None, None, None]
    negative = np.arange(2)[:, None, None]
    zeros = np.arange(17)[:, None]
    at = np.arange(_WIDTH)
    point, first = 7 + k, 6 + np.minimum(k, 0)
    end = _TEXT - zeros
    end = np.where(end <= k + 8, k + 7, end)
    kept = at < end
    constant = (ord(".") * (at == point) + ord("0") * ((at == first) & (k < 0))
                + ord("-") * ((at == first - 1) & (negative == 1)))  # 0, _PAD, elsewhere

    def rows(slot_bytes):
        slot_bytes = np.broadcast_to(slot_bytes, (21, 2, 17, _WIDTH))
        return np.ascontiguousarray(slot_bytes, np.uint8).reshape(-1, _WIDTH).view(np.uint32)

    return (quads, trailing, tens, *_halves(tens),
            rows(255 * ((at > point) & kept | (at == _TEXT))),
            rows(255 * ((at >= first) & (at < point) & (k >= 0))), rows(constant * kept))


def _halves(x):
    """Veltkamp's split of ``x``: ``high + low == x``, each of at most 26 bits."""
    t = x * _VELTKAMP
    high = t - (t - x)
    return high, x - high


def _scaled(size, q, tens, tens_high, tens_low):
    """``round(size * 10**q)``, half to even, for ``10**16 <= size * 10**q <
    10**17``, and the exact ``size * 10**q - hi``, where ``hi`` is the product
    rounded to a double. Out of that range the first is off by at most one."""
    hi = np.take(tens, q) * size
    size_high, size_low = _halves(size)
    ten_high, ten_low = np.take(tens_high, q), np.take(tens_low, q)
    lo = size_high * ten_high - hi  # each step is exact (Dekker)
    lo += size_high * ten_low
    lo += size_low * ten_high
    lo += size_low * ten_low
    digits = hi.astype(np.int64)
    digits += np.rint(lo).astype(np.int64)
    return digits, lo


def _digits(size, tens, tens_high, tens_low):
    """For each ``1e-4 <= size < 1e15``: its 17 significant digits, rounded
    half to even, as one int64, and q = 16 - k for the k with ``10**k <= size
    < 10**(k + 1)`` after that rounding."""
    # up to one off where size is next to a power of 10
    q = (16 - np.floor(np.log10(size))).astype(np.intp)
    digits, lo = _scaled(size, q, tens, tens_high, tens_low)
    wrong = np.flatnonzero((digits <= 10 ** 16) | (digits >= 10 ** 17))
    if wrong.size:
        d, lo = digits[wrong], lo[wrong]
        k_high = (d < 10 ** 16) | ((d == 10 ** 16) & (lo < 0))
        q[wrong] += k_high.astype(np.intp) - (d > 10 ** 17)
        d = _scaled(size[wrong], q[wrong], tens, tens_high, tens_low)[0]
        carry = d == 10 ** 17  # 9.99...95 rounds up to 10
        d[carry] = 10 ** 16
        digits[wrong], q[wrong] = d, q[wrong] - carry
    return digits, q


def _split(n, base):
    """``n // base`` and ``n % base``, without numpy's slower remainder."""
    high = n // base
    return high, n - high * base


def _block_bytes(table: np.ndarray) -> bytes:
    """``csv_rows``' bytes for the rows of ``table``."""
    quads, trailing, tens, tens_high, tens_low, stay, move, constant = _tables()
    n_rows, n_cols = table.shape
    x = table.ravel()
    size = np.abs(x)
    other = np.flatnonzero(~((size >= 1e-4) & (size < 1e15)))
    size[other] = 1.0
    digits, q = _digits(size, tens, tens_high, tens_low)

    # each slot's quads, as indices into quads
    index = np.empty((x.size, _QUADS), np.intp)
    index[:, 0] = _EMPTY
    head, tail = _split(digits, 10 ** 8)
    head, tail = head.astype(np.uint32), tail.astype(np.uint32)
    index[:, 1], head = _split(head, 10 ** 8)
    index[:, 2], index[:, 3] = _split(head, 10 ** 4)
    index[:, 4], index[:, 5] = _split(tail, 10 ** 4)
    index[:, 6] = _COMMA
    index.reshape(n_rows, n_cols, _QUADS)[:, -1, 6] = _NEWLINE
    zeros = trailing[index[:, 5]]
    more = np.flatnonzero(zeros == 4)  # cells whose last 4 digits are 0000
    for j in (4, 3, 2):
        zeros[more] += trailing[index[more, j]]
        more = more[zeros[more] == 4 * (6 - j)]
    row = 34 * q + 17 * (x < 0) + zeros
    # each array is dropped once used, so the next ones reuse its memory
    del size, digits, q, head, tail, zeros

    cells = np.take(quads, index)
    del index
    flat = cells.view(np.uint8).ravel()
    moved = np.empty_like(flat)  # its last byte is never kept, nor set
    moved[:-1] = flat[1:]
    moved = moved.view(np.uint32).reshape(cells.shape)
    cells &= np.take(stay, row, axis=0)
    moved &= np.take(move, row, axis=0)
    cells |= moved
    del moved
    cells |= np.take(constant, row, axis=0)

    slots = cells.view(np.uint8)
    if other.size:
        slots[other, :_TEXT] = np.array(["%.17g" % v for v in x[other].tolist()],
                                        dtype=f"S{_TEXT}").view(np.uint8).reshape(-1, _TEXT)
    return _unpadded(slots.tobytes())


def csv_rows(table: np.ndarray) -> str:
    """The rows of the 2-D float64 ``table`` as CSV text: the bytes of the
    template ``",".join(["%.17g"] * n_cols) + "\\n"`` filled with each row."""
    n_rows, n_cols = table.shape
    step = max(1, _BLOCK_CELLS // n_cols)
    return b"".join([_block_bytes(table[a:a + step])
                     for a in range(0, n_rows, step)]).decode("utf-8")


def indexed_rows(start: int, endings: np.ndarray) -> str:
    """The rows ``str(i) + e`` for the items ``e`` of ``endings`` and ``i =
    start, start + 1, ...`` in turn. ``endings`` is a numpy bytes (``S``)
    array, whose shorter items numpy fills with zero bytes, ``_PAD``.

    Each index goes into a slot as wide as the last, the widest, filled from
    ``_quads()`` four digits at a time; the rows of the range are ascending,
    so those with fewer digits are a leading run, whose unused bytes become
    ``_PAD`` column by column."""
    n = len(endings)
    width = len(str(start + n - 1))
    n_quads = -(-width // 4)
    index, groups = np.arange(start, start + n), np.empty((n, n_quads), np.int64)
    for j in reversed(range(n_quads)):
        index, groups[:, j] = np.divmod(index, 10 ** 4)
    slots = np.empty((n, width + endings.itemsize), np.uint8)
    slots[:, :width] = _quads()[groups].view(np.uint8)[:, 4 * n_quads - width:]
    slots[:, width:] = endings.view(np.uint8).reshape(n, -1)
    for k in range(len(str(start)), width):  # rows below 10**k have a zero in column width-1-k
        slots[:10 ** k - start, width - 1 - k] = _PAD
    return _unpadded(slots.tobytes()).decode("utf-8")


def _unpadded(data: bytes) -> bytes:
    """``data`` with every ``_PAD`` byte dropped."""
    return data.translate(None, bytes([_PAD]))
