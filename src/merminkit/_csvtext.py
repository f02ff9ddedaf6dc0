"""The text of contour CSV blocks, every number byte for byte as ``'%.6g'``.

A number is written by a vectorized kernel wherever its 6-digit rounding is
certain, and by ``'%.6g' %`` itself otherwise.  Each line is built in
NUL-padded little-endian words of a block buffer, and the NUL bytes are
dropped from the block's text at once.  :mod:`merminkit.bounds` imports this
module on its first CSV output, so no other command compiles it.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from itertools import product

import numpy as np

# A number's text is built in 24 NUL-padded bytes, read as three little-endian
# words: the sign at byte 0, a leading "0.", "0.0", "0.00" or "0.000" from
# byte 1, digit j at byte 6 + 2j with a slot for a decimal point after it, the
# exponent "e+XX" at bytes 17..20 and a newline at byte 21.
_DIGIT_BYTE = 6
_EXP_BYTE = 17
_X_RANGE = range(-17, 23)  # covers the decimal exponents of 1e-16 <= |v| < 1e22


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The read-only tables of ``_g6_words``, built once.

    ``up`` and ``down`` scale by 10^k, indexed by k + 22, as one multiplication
    and one division by exact powers of ten.  For a digit triple t = 0..999,
    ``hi_digits[:, t]`` and ``lo_digits[:, t]`` hold its digits as digits 0..2
    and 3..5 of the text, and ``hi_count[t]`` and ``lo_count[t]`` the digits
    that remain when trailing zeros are dropped (0 for a low triple of zero).
    ``layouts[:, i]``, for i = ((x + 17) 7 + digits) 2 + sign, holds every byte
    of the text but its digits, and "0" where a trailing zero is dropped, so
    that XOR with the digit words gives the text.
    """
    exact = np.array([float(10 ** k) for k in range(23)])  # 5^22 < 2^53
    up = np.concatenate((np.ones(22), exact))
    down = np.concatenate((exact[:0:-1], np.ones(23)))
    triples = [f"{t:03d}" for t in range(1000)]
    hi_count = np.array([len(t.rstrip("0")) for t in triples])
    lo_count = np.array([3 + len(t.rstrip("0")) if t != "000" else 0 for t in triples])
    digits = np.zeros((2, 1000, 24), np.uint8)
    for half, j in product(range(2), range(3)):
        digits[half, :, _DIGIT_BYTE + 6 * half + 2 * j] = [ord(t[j]) for t in triples]
    layouts = np.zeros((len(_X_RANGE), 7, 2, 24), np.uint8)
    for (i, x), nd, negative in product(enumerate(_X_RANGE), range(1, 7), range(2)):
        sci = not -4 <= x <= 5
        shown = nd if sci or x < 0 else max(nd, x + 1)  # fixed form keeps integer zeros
        point = 0 if sci else x
        text = layouts[i, nd, negative]
        text[0] = ord("-") if negative else 0
        if not sci and x < 0:
            text[1:2 - x] = list(b"0.000"[:1 - x])
        text[_DIGIT_BYTE + 2 * shown:_DIGIT_BYTE + 12:2] = ord("0")
        if 0 <= point < shown - 1:
            text[_DIGIT_BYTE + 2 * point + 1] = ord(".")
        if sci:
            text[_EXP_BYTE:_EXP_BYTE + 4] = list(b"e%+03d" % x)
        text[_EXP_BYTE + 4] = ord("\n")

    def words(table):  # the bytes of each row as three native words, one array each
        w = table.reshape(-1, 24).view("<u8").astype(np.uint64).T.copy()
        w.flags.writeable = False
        return w

    for table in (up, down, hi_count, lo_count):
        table.flags.writeable = False
    return up, down, hi_count, lo_count, words(digits[0]), words(digits[1]), words(layouts)


def _mantissas(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 6-digit mantissa m and decimal exponent x of ``'%.6g' % v`` for each
    float v, m 10^(x-5) being |v| correctly rounded, and whether they are sure.

    A finite v with 1e-16 <= |v| < 1e22 is scaled to s = |v| 10^k, with k from
    log10, by one exact power of ten, so s is off by at most 2^-34 < 6e-11
    and rint(s) is the correctly rounded mantissa unless s lies within 1e-6 of
    a half-integer.  Zeros, non-finite values, the rest of the range and those
    near-ties are not sure.
    """
    up, down = _tables()[:2]
    finite = np.isfinite(values)
    a = np.abs(values) if finite.all() else np.where(finite, np.abs(values), 0.0)
    sure = (a >= 1e-16) & (a < 1e22)
    if not sure.all():
        a[~sure] = 1.0  # keeps log10 finite
    k = np.log10(a)
    k = 27 - np.floor(k, out=k).astype(np.intp)  # k + 22
    s = up.take(k)
    s *= a
    s /= down.take(k)
    m = np.rint(s)
    s -= m
    sure &= np.abs(s, out=s) < 0.5 - 1e-6
    m = m.astype(np.intp)
    # s >= 999999.5 rounds to the next exponent.  log10 misses the exponent
    # only within a few ulps of a power of ten, where s comes out a hair below
    # 100000, the right mantissa, or a hair above 1e6, carried here.
    carry = m == 1000000
    m[carry] = 100000
    k -= carry
    return m, 27 - k, sure


def _g6_words(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.6g' % v`` and a newline for each v of the float array
    ``values`` into the matching row of ``out``, three little-endian words of
    NUL-padded text: from ``_mantissas`` where it is sure, by ``%`` itself
    otherwise.  The high digit triple fills words 0 and 1, the low one 1 and 2."""
    _, _, hi_count, lo_count, hi_digits, lo_digits, layouts = _tables()
    m, layout, sure = _mantissas(values)  # the layout index is built on x in place
    hi, lo = np.divmod(m, 1000)
    del m
    layout -= _X_RANGE.start
    layout *= 7
    layout += np.maximum(hi_count.take(hi), lo_count.take(lo))
    layout *= 2
    layout += np.signbit(values)
    out[:, 0] = hi_digits[0].take(hi) ^ layouts[0].take(layout)
    word = hi_digits[1].take(hi)
    word |= lo_digits[1].take(lo)
    word ^= layouts[1].take(layout)
    out[:, 1] = word
    out[:, 2] = lo_digits[2].take(lo) ^ layouts[2].take(layout)
    redo = np.flatnonzero(~sure)
    if redo.size:
        out[redo] = np.frombuffer(b"".join((b"%.6g\n" % v).ljust(24, b"\0")
                                           for v in values[redo].tolist()),
                                  "<u8").reshape(-1, 3)


def csv_texts(axis: np.ndarray, values, block_rows: int) -> Iterator[str]:
    """The header, then the ``x3,y3,mu`` text of each ``block_rows`` rows of
    the real ``values``, whose rows and columns are sampled at ``axis``."""
    yield "x3,y3,mu\n"
    r = len(axis)
    # each axis label and its ",", NUL-padded to whole words; only r of them.  A
    # view would keep the joined bytes alive, which raised a pass's peak RSS
    texts = [b"%.6g," % v for v in axis.tolist()]
    n = -(-max(map(len, texts)) // 8)
    labels = np.frombuffer(b"".join(t.ljust(8 * n, b"\0") for t in texts), "<u8").reshape(r, n)
    labels = labels.copy()
    for top in range(0, r, block_rows):
        yield _block_text(labels[top:top + block_rows], labels,
                          np.asarray(values[top:top + block_rows], dtype=float))


def _block_text(x_labels: np.ndarray, y_labels: np.ndarray, rows: np.ndarray) -> str:
    """The lines of the grid rows ``rows``: x label, y label, value, newline."""
    n = y_labels.shape[1]
    buf = bytearray(rows.size * 8 * (2 * n + 3))  # filled in place, translated uncopied
    text = np.frombuffer(buf, "<u8").reshape(*rows.shape, 2 * n + 3)
    text[:, :, :n] = x_labels[:, None]
    text[:, :, n:2 * n] = y_labels
    _g6_words(rows.ravel(), text.reshape(rows.size, -1)[:, 2 * n:])
    return buf.translate(None, b"\0").decode("ascii")
