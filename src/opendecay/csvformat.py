"""Exact vectorized ``%.17g`` formatting of float64 tables as CSV rows.

``format_rows(rows)`` returns the bytes of ``"%.17g,...,%.17g\\n" % row`` for
every row of a 2-D float64 array, computed with numpy on the whole array.

Fast path, every finite ``x`` with ``1e-6 <= |x| < 1e17``: with ``k`` the
decimal exponent of ``|x|`` and ``p = 16 - k`` in 0..22, ``10**p`` is an
exact double (``5**22 < 2**53``), so Dekker's two-product (Numer. Math. 18,
224 (1971)) gives ``|x| * 10**p = hi + lo`` exactly.  ``k`` is estimated by
``log10`` and fixed by comparing ``hi + lo`` exactly with ``1e16`` and
``1e17``.  Then ``hi >= 1e16 > 2**53`` is an even integer, so
``D = hi + rint(lo)`` is the product rounded half to even: the 17 significant
digits ``%.17g`` prints.  ``D`` never carries to ``10**17``: that needs a
double within a relative ``5e-18`` below a power of ten, closer than any
double's spacing allows, and the doubles next to each power of ten in the
range round down (the tests take every one of them).  The ``%g`` layout is
then fixed notation for ``-4 <= k < 17`` and ``e-05``/``e-06`` below, with
trailing zeros and a bare ``.`` dropped.  It is built in one byte array per
call and a keep mask picks its bytes.

Every other value (0, -0, NaN, +-inf, subnormals, magnitudes outside the
range, or an exponent that did not settle after one correction) is written
into its slot by Python's ``"%.17g" % x``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting factor


def _split(a):
    # a = hi + lo with both halves of at most 26 significant bits.
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_P10 = 10.0 ** np.arange(23)
_P10_HI, _P10_LO = _split(_P10)

# The four ASCII digits of 0..9999 as one native uint32 each.
_ASCII = np.frombuffer(b"0123456789", np.uint8)
_DIG4 = np.stack(np.meshgrid(*[_ASCII] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()

# A cell's bytes: sign | "0.000" | d0..d16 | "." | d0..d16 | "e-0" X | sep.
# The digits are there twice so that each kept part of a cell is one run:
# integer digits from the first copy, fraction digits from the second.
_BASE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e-0X,", np.uint8)
_WIDTH = _BASE.size
_INT, _DOT, _FRAC, _EXP = 6, 23, 24, 41


def _keep_table() -> np.ndarray:
    # Row (k + 6) * 17 + nd - 1: the bytes kept for decimal exponent k
    # (-6..16) and nd significant digits (1..17); the sign is set per cell.
    keep = np.zeros((23, 17, _WIDTH), bool)
    keep[..., -1] = True
    for k in range(-6, 17):
        rows = keep[k + 6]
        if k >= 0:  # d0..dk . d(k+1)..d(nd-1)
            lead = k + 1
        elif k >= -4:  # 0.0..0 d0..d(nd-1)
            lead = 0
            rows[:, 1 : 2 - k] = True
        else:  # d0 . d1..d(nd-1) e-0X
            lead = 1
            rows[:, _EXP : _EXP + 4] = True
        rows[:, _INT : _INT + lead] = True
        for nd in range(1, 18):
            rows[nd - 1, _DOT] = 0 < lead < nd
            rows[nd - 1, _FRAC + lead : _FRAC + nd] = True
    return keep.reshape(-1, _WIDTH)


_KEEP = _keep_table()


def _two_product(a, k):
    # a * 10**(16 - k) = hi + lo exactly (Dekker).
    p = 16 - k
    hi = a * _P10.take(p)
    ah, al = _split(a)
    bh, bl = _P10_HI.take(p), _P10_LO.take(p)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _decimal(a):
    """For magnitudes ``a`` in [1e-6, 1e17): the decimal exponent k, the
    17 significant digits as the integer D in [1e16, 1e17), rounded half to
    even, and whether k settled after one correction of its estimate."""
    k = np.floor(np.log10(a)).astype(np.intp)
    np.maximum(np.minimum(k, 16, out=k), -6, out=k)
    hi, lo = _two_product(a, k)
    # The sign of hi + lo - 1e16 exactly: hi - 1e16 is exact (Sterbenz)
    # wherever it is small enough for lo to matter.  The same at 1e17.
    up = (hi - 1e17) + lo >= 0
    down = (hi - 1e16) + lo < 0
    settled = np.ones(a.size, bool)
    moved = np.flatnonzero(up | down)
    if moved.size:
        km = k[moved] + up[moved] - down[moved]
        ok = (km >= -6) & (km <= 16)
        np.maximum(np.minimum(km, 16, out=km), -6, out=km)
        hm, lm = _two_product(a[moved], km)
        ok &= ((hm - 1e16) + lm >= 0) & ((hm - 1e17) + lm < 0)
        k[moved], hi[moved], lo[moved], settled[moved] = km, hm, lm, ok
    return k, hi.astype(np.int64) + np.rint(lo).astype(np.int64), settled


def format_rows(rows: np.ndarray) -> bytes:
    """The bytes of ``"%.17g,...,%.17g\\n" % tuple(row)`` for every row of a
    2-D float array, byte for byte."""
    ncol = rows.shape[1]
    x = np.ascontiguousarray(rows, dtype=np.float64).ravel()
    n = x.size
    a = np.abs(x)
    fast = (a >= 1e-6) & (a < 1e17)
    k, d, settled = _decimal(np.where(fast, a, 1.0))
    fast &= settled

    # Digit groups d0 | d1-4 | d5-8 | d9-12 | d13-16 of the 17-digit D.
    top, bot = np.divmod(d, 10**8)
    top, bot = top.astype(np.int32), bot.astype(np.int32)
    g = np.empty((n, 5), np.int32)
    g[:, 0] = top // 10**8
    g[:, 1] = (top // 10**4) % 10**4
    g[:, 2] = top % 10**4
    g[:, 3] = bot // 10**4
    g[:, 4] = bot % 10**4
    digits = _DIG4.take(g).view(np.uint8)[:, 3:]  # d0 ... d16, as ASCII
    nd = np.full(n, 17, np.intp)
    zero = np.flatnonzero(digits[:, 16] == 48)  # about 1 cell in 10
    if zero.size:
        nd[zero] -= np.argmax(digits[zero, ::-1] != 48, axis=1)

    keep = _KEEP.take((k + 6) * 17 + nd - 1, axis=0)
    keep[:, 0] = np.signbit(x)
    out = np.empty((n, _WIDTH), np.uint8)
    out[:] = _BASE
    out[:, _INT:_DOT] = digits
    out[:, _FRAC:_EXP] = digits
    out[:, _EXP + 3] = 48 - k
    out[ncol - 1 :: ncol, -1] = 10
    for i in np.flatnonzero(~fast):
        s = b"%.17g" % x[i]
        out[i, : len(s)] = np.frombuffer(s, np.uint8)
        keep[i, :-1] = np.arange(_WIDTH - 1) < len(s)
    return out[keep].tobytes()
