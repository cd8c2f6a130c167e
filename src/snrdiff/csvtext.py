"""CSV text of a float table, formatted in numpy: byte for byte what
Python's ``'%.17g' % v`` prints for each value (``'%d' % v`` in the
integer columns).

Finite |v| in [1e-3, 2**52), where ``%g`` prints 17 significant digits in
fixed notation, and integer-column values in [0, 2**53) print from their
decimal digits, formed in exact integer arithmetic (see ``_rounded``).
Every other value (zero, |v| < 1e-3, |v| >= 2**52, inf, nan) prints
through ``'%.17g' % v`` (``'%d' % v``) itself.  Each block of rows is laid
out as NUL-padded columns of characters, one per value, and its text is
those bytes, row by row, with the NULs deleted.
"""

from __future__ import annotations

import numpy as np

# values formatted at once: the digit planes of a block stay a few hundred
# KB whatever the table's size
_BLOCK = 4096
# 10**k as uint64 for k = 0..19, and as the float nearest 10**k for
# k = -3..16.  The floats for 10**-3, 10**-2 and 10**-1 lie above the powers
# they stand for, so |x| >= _TENS[X + 3] exactly when |x| >= 10**X.
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_TENS = np.array([float(f"1e{k}") for k in range(-3, 17)])
# the four characters of 0000..9999, each packed in one uint32; built in
# uint16, as freeing a temporary past glibc's 128 KB mmap threshold raises
# that threshold, and with it the memory the rest of the process keeps
_DIGITS4 = (np.arange(10000, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], np.uint16) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# the longest '%.17g' text, as of -2.2250738585072014e-308
_TEXT_WIDTH = 24


def _digit_planes(planes, v) -> None:
    """Write the digits of the uint64 array ``v``, zero-padded to the
    ``len(planes)`` places it fits in, into ``planes``: one row per place.
    ``planes`` is a range of rows of a C-ordered array, so its reshape
    below is a view."""
    k = -(-len(planes) // 4)
    chunks = np.empty((k, len(v)), np.intp)
    for j in range(k - 1, 0, -1):
        q = v // 10000
        chunks[j] = v - q * 10000
        v = q
    chunks[0] = v
    chars = (_DIGITS4[chunks].view(np.uint8).reshape(k, len(v), 4)
             .transpose(0, 2, 1))
    top = len(planes) - 4 * (k - 1)
    planes[:top] = chars[0, 4 - top:]
    planes[top:].reshape(k - 1, 4, len(v))[...] = chars[1:]


def _drop_zeros(planes, leading: bool):
    """NUL the '0' rows of ``planes`` ahead of a column's first other digit
    (``leading``; its last place stays) or after its last one, and return
    the mask of places kept."""
    keep = planes != ord("0")
    if leading:
        keep[-1] = True
    k = 1
    while k < len(planes):
        if leading:
            keep[k:] |= keep[:-k]
        else:
            keep[:-k] |= keep[k:]
        k *= 2
    planes *= keep
    return keep


def _rounded(a):
    """(N, X) with a rounded to 17 significant digits N * 10**(X - 16),
    half to even, for every a in [1e-3, 2**52): N in [10**16, 10**17)
    and X in [-3, 15].

    a = m / 2**s exactly, with m < 2**53 and 1 <= s <= 62.  X is
    floor(log10 a), so N's floor m * 10**(16 - X) // 2**s lies in
    [10**16, 10**17); the product, below 2**117, is formed exactly from
    32-bit limbs, and the remainder below 2**s rounds it.  The rounding
    never reaches 10**17: that needs a within 5e-18 of a power of ten,
    finer than the spacing of doubles, and no power of ten in the range
    rounds down to a double.
    """
    f, e = np.frexp(a)
    m = np.ldexp(f, 53).astype(np.uint64)
    s = (53 - e).astype(np.uint64)
    # floor(log10 2**(e - 1)) for |e - 1| < 1000; a < 2**e is below
    # 10 * 2**(e - 1), so X is that or one more
    x = ((e.astype(np.int64) - 1) * 78913) >> 18
    x += a >= _TENS[x + 4]
    p = _POW10[16 - x]
    mh, ml = m >> 32, m & 0xFFFFFFFF
    ph, pl = p >> 32, p & 0xFFFFFFFF
    low = ml * pl
    mid = ml * ph + (low >> 32)
    mid2 = mh * pl + (mid & 0xFFFFFFFF)
    hi = mh * ph + (mid >> 32) + (mid2 >> 32)
    lo = (mid2 << 32) | (low & 0xFFFFFFFF)
    n = (hi << (64 - s)) | (lo >> s)
    half = np.left_shift(1, s - 1, dtype=np.uint64)
    n += ((lo & (2 * half - 1)) + (n & 1)) > half
    return n, x


def _per_value(planes, x, where, fmt: str) -> None:
    """Write ``fmt % v`` for each value v of ``x`` at ``where`` into its
    column of ``planes``, over whatever the column held."""
    for i in np.flatnonzero(where):
        text = np.frombuffer((fmt % x[i]).encode(), np.uint8)
        planes[:-1, i] = 0
        planes[:len(text), i] = text


def _int_planes(x):
    """The '%d' text of ``x`` in NUL-padded columns, one per value, with a
    row per character place and a last row of ','.  Values in [0, 2**53)
    print from their digits, the others through '%d' itself."""
    fast = (x >= 0) & (x < 2.0**53)
    v = np.where(fast, x, 0.0).astype(np.uint64)
    width = len(str(int(v.max())))
    slow = not fast.all()
    planes = np.zeros((max(width, _TEXT_WIDTH if slow else 0) + 1, len(x)),
                      np.uint8)
    planes[-1] = ord(",")
    _digit_planes(planes[:width], v)
    _drop_zeros(planes[:width], True)
    if slow:
        _per_value(planes, x, ~fast, "%d")
    return planes


def _float_planes(x):
    """The '%.17g' text of ``x`` laid out as _int_planes does.  Finite |x|
    in [1e-3, 2**52) prints from _rounded's 17 digits in fixed notation, as
    '%g' prints any exponent in [-4, 17): sign, whole digits, point and
    fraction digits, with the zeros '%g' drops NULed.  The others print
    through '%.17g' itself."""
    a = np.abs(x)
    fast = (a >= 1e-3) & (a < 2.0**52)
    n, e = _rounded(np.where(fast, a, 1.0))
    whole, frac = max(int(e.max()), 0) + 1, 16 - int(e.min())
    slow = not fast.all()
    planes = np.zeros((max(2 + whole + frac, _TEXT_WIDTH if slow else 0) + 1,
                       len(x)), np.uint8)
    planes[-1] = ord(",")
    planes[0] = np.signbit(x) * np.uint8(ord("-"))
    p = _POW10[16 - e]
    i = n // p
    ints = planes[1:1 + whole]
    _digit_planes(ints, i)
    _drop_zeros(ints, True)
    fracs = planes[2 + whole:2 + whole + frac]
    _digit_planes(fracs, (n - i * p) * _POW10[frac - 16 + e])
    planes[1 + whole] = _drop_zeros(fracs, False)[0] * np.uint8(ord("."))
    if slow:
        _per_value(planes, x, ~fast, "%.17g")
    return planes


def csv_rows(table, int_columns: int) -> str:
    """The CSV lines of the 2-D float array ``table``, each ending in a
    newline; its first ``int_columns`` columns print through '%d'."""
    texts = []
    step = max(1, _BLOCK // table.shape[1])
    for start in range(0, len(table), step):
        block = table[start:start + step]
        planes = []
        if int_columns:
            planes.append(_int_planes(block[:, :int_columns].ravel()))
        if int_columns < table.shape[1]:
            planes.append(_float_planes(block[:, int_columns:].ravel()))
        lines = np.concatenate([p.T.reshape(len(block), -1) for p in planes],
                               axis=1)
        lines[:, -1] = ord("\n")
        texts.append(lines.tobytes().translate(None, b"\0").decode())
    return "".join(texts)
