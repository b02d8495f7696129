"""CSV rows built as byte tables: a float table with the bytes ``"%.17g" % x``
writes per cell, and the ``sample`` CSV's index and label rows.

``%`` formats one float per call. Here each cell ``%.17g`` writes in fixed
notation, ``1e-4 <= |x| < 1e15``, is rounded to 17 significant digits on
whole arrays with exact integer arithmetic: ``|x| = m * 2**(e - 53)`` with
``m < 2**53``, so for ``10**k <= |x| < 10**(k + 1)`` the digits are
``round(m * 5**q / 2**s)`` with ``q = 16 - k`` and ``s = 53 - e - q`` (1 to
47), half to even as ``%`` rounds. The product is held as two ``uint64``
words, and every constant is an ``np.uint64`` so that numpy's promotion rules
never turn the arithmetic into floats. Every other cell (zero, exponent
notation, not finite) is written by ``%`` itself.

Each cell's text goes into a slot of ``_WIDTH`` bytes, laid out by tables
indexed by k, and the unused bytes of a slot hold ``_PAD``, which the join
of the rows drops.

``indexed_rows`` writes ``str(i) + ending`` per row the same way: each index
in a slot of digits from the same 4-digit table, its leading zeros ``_PAD``,
then the row's ending, and the rows joined by the same drop of ``_PAD``.
"""
from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_1E16, _1E17 = _U(10 ** 16), _U(10 ** 17)
# the widest %.17g text is 24 characters: -1.9762625833649862e-323
_WIDTH = 24
_PAD = 0  # a byte no text holds, dropped when the rows are joined


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

    - ``_quads()``, and how many of each quad's digits are trailing zeros (4
      for n = 0);
    - the low and high 32 bits of 5**q, q = 0..21 (21 for a k one too low);
    - for each k = -4..14 (row k + 4), the bytes of a slot, as 3 uint64 words:
      where the digits stay, where they come from one byte to the right, and
      the constant bytes ('.', and for k < 0 the '0' before it), then those
      again with the '-' (row k + 23);
    - for each length 0.._WIDTH, the bytes of a slot that are kept."""
    n = np.arange(10 ** 4)
    trailing = sum(n % 10 ** i == 0 for i in range(1, 5))
    powers = np.cumprod(np.full(22, 5, dtype=np.uint64)) // _U(5)
    k = np.arange(-4, 15)[:, None]
    at = np.arange(_WIDTH)
    point, first = 7 + k, 6 + np.minimum(k, 0)
    constant = np.where(at == point, ord("."),
                        np.where((at == first) & (k < 0), ord("0"), _PAD))
    signed = np.where(at == first - 1, ord("-"), constant)

    def words(slot_bytes):
        return np.ascontiguousarray(slot_bytes, dtype=np.uint8).view(np.uint64)

    return (_quads(), trailing, powers & _LOW32, powers >> _U(32),
            words(255 * (at > point)), words(255 * ((at >= first) & (at < point) & (k >= 0))),
            words(np.concatenate([constant, signed])),
            words(255 * (at < np.arange(_WIDTH + 1)[:, None])))


def _scaled(m, e, k, p5_low, p5_high):
    """``floor(m * 2**(e - 53) * 10**(16 - k))`` and whether rounding it to
    the nearest integer, ties to even, adds one."""
    q = 16 - k
    s = (53 - e - q).astype(np.uint64)
    p_low, p_high = p5_low[q], p5_high[q]
    m_low, m_high = m & _LOW32, m >> _U(32)  # m < 2**53
    # m * 5**q = high * 2**64 + low, from four products of 32-bit halves
    low = m_low * p_low
    mid = m_high * p_low
    mid += m_low * p_high
    mid += low >> _U(32)  # < 2**55
    high = m_high * p_high
    del q, p_low, p_high, m_low, m_high
    high += mid >> _U(32)
    low &= _LOW32
    low |= mid << _U(32)
    del mid
    whole = low >> s
    whole |= high << (_U(64) - s)
    half = _U(1) << (s - _U(1))
    low &= (half << _U(1)) - _U(1)  # what the shift dropped
    return whole, (low > half) | ((low == half) & (whole & _U(1) == _U(1)))


def _digits(size, p5_low, p5_high):
    """For each ``1e-4 <= size < 1e15``: its 17 significant digits, rounded
    half to even, as one int64, and k with ``10**k <= size < 10**(k + 1)``
    after that rounding."""
    mantissa, e = np.frexp(size)
    m = (mantissa * 2.0 ** 53).astype(np.uint64)  # size = m * 2**(e - 53)
    del mantissa
    # up to one off where size is next to a power of 10
    k = np.floor(np.log10(size)).astype(np.int64)
    whole, up = _scaled(m, e, k, p5_low, p5_high)
    low, high = whole < _1E16, whole >= _1E17
    wrong = np.flatnonzero(low | high)
    if wrong.size:
        k[wrong] += high[wrong].astype(np.int64) - low[wrong]
        whole[wrong], up[wrong] = _scaled(m[wrong], e[wrong], k[wrong], p5_low, p5_high)
    digits = (whole + up).view(np.int64)
    carry = digits == 10 ** 17  # 9.99...95 rounds up to 10
    digits[carry] = 10 ** 16
    k += carry
    return digits, k


def csv_rows(table: np.ndarray) -> str:
    """The rows of the 2-D float64 ``table`` as CSV text: the bytes of the
    template ``",".join(["%.17g"] * n_cols) + "\\n"`` filled with each row."""
    quads, trailing, p5_low, p5_high, stay, move, constant, keep = _tables()
    n_rows, n_cols = table.shape
    x = table.ravel()
    # Each temporary is dropped once used: a 4096-row chunk then peaks at
    # about 3.6 MiB of arrays instead of 8.9, and less of that stays resident
    # in a process that formats many chunks.
    size = np.abs(x)
    fast = (size >= 1e-4) & (size < 1e15)
    size[~fast] = 1.0
    digits, k = _digits(size, p5_low, p5_high)
    del size

    # The 17 digits in 5 groups, the first of one digit, as text at bytes
    # 7..23 of a slot of _WIDTH bytes, behind three '0's; the same text one
    # byte to the left, for the digits before the point; and how many of the
    # digits are trailing zeros.
    groups = np.empty((x.size, 5), np.int64)
    head, tail = np.divmod(digits, 10 ** 8)
    np.divmod(head, 10 ** 4, out=(groups[:, 1], groups[:, 2]))
    np.divmod(groups[:, 1], 10 ** 4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(tail, 10 ** 4, out=(groups[:, 3], groups[:, 4]))
    del digits, head, tail
    cells = np.zeros((x.size, _WIDTH), np.uint8)
    cells.view(np.uint32)[:, 1:] = quads[groups]
    moved = np.empty_like(cells)
    moved[:, :-1] = cells[:, 1:]
    zeros = trailing[groups[:, 4]]
    for j in (3, 2, 1):  # while the groups to the right are all zeros
        zeros += (zeros == 4 * (4 - j)) * trailing[groups[:, j]]
    del groups
    # The point is at byte 7 + k; the fraction's trailing zeros are dropped,
    # and the point with them when nothing follows it.
    end = _WIDTH - zeros
    end = np.where(end <= k + 8, k + 7, end)
    words, moved = cells.view(np.uint64), moved.view(np.uint64)
    words &= np.take(stay, k + 4, axis=0)
    moved &= np.take(move, k + 4, axis=0)
    words |= moved
    del moved
    words |= np.take(constant, k + 4 + len(stay) * (x < 0), axis=0)
    words &= np.take(keep, end, axis=0)

    slots = np.empty((x.size, _WIDTH + 1), np.uint8)
    slots[:, :_WIDTH] = cells
    del cells, words
    other = np.flatnonzero(~fast)
    if other.size:
        slots[other, :_WIDTH] = np.array(["%.17g" % v for v in x[other].tolist()],
                                         dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    slots = slots.reshape(n_rows, n_cols, _WIDTH + 1)
    slots[:, :, _WIDTH] = ord(",")
    slots[:, -1, _WIDTH] = ord("\n")
    text = slots.tobytes()
    del slots
    return _unpadded(text)


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
    return _unpadded(slots.tobytes())


def _unpadded(data: bytes) -> str:
    """``data`` as text, with every ``_PAD`` byte dropped."""
    return data.translate(None, bytes([_PAD])).decode("utf-8")
