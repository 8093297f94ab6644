"""Exact ``%.17g`` CSV text, made by numpy: :func:`write_rows`.

Python's ``"%.17g" % x`` rounds x to 17 significant digits (correctly, ties
to even) and lays them out by the ``g`` rules; with 17 digits its dtoa runs
its bignum path for every value.  :func:`write_rows` makes the same bytes
for 256 rows at a time, in work buffers allocated once per file: one
chunk's worth each, but for the gather's index buffer (Layout):

* Digits.  With e = floor(log10 |x|), made exact against a table of the
  smallest doubles >= 10**e, the 17 digits are D = round(V), V = |x|
  10**(16 - e).  V is taken in double-double: 10**(16 - e) is a pair
  (hi, lo) built from Python ints and |x| hi is split exactly by Dekker's
  method, so V is known to about 1e-15, far inside the margin below.
* Layout.  From the digit count left after stripping trailing zeros, the
  sign and e, each value picks a template: which of its digit, exponent
  and constant characters fill the 26 slots of its field, the text right
  before the separator in the fixed slots 24-25 (``,`` and NUL), NUL
  elsewhere.  A field so reads the same in any column; the last column's
  separator slots become ``\r\n``.  A gather builds the character matrix,
  in parts whose index buffer (8 bytes a slot) is capped at 256 KB
  (_GATHER_BYTES) whatever the width; one boolean compress of it is the
  text.
* Repeated columns.  A column whose bits repeat an earlier column's (found
  once per file, through int64 views) is neither formatted nor laid out:
  the stages above run on the distinct columns only, and it copies its
  source's finished fields.  A file without one keeps a single field
  matrix.
* Decided values.  A value is decided when it is 0 (written ``0`` or
  ``-0``) or when 1e-280 <= |x| < 1e281 (there the split and the products
  neither overflow nor lose bits to underflow), V's fraction is more than
  1e-6 from 0.5 and D < 10**17.  Exact ties at 17 digits, nan, inf,
  subnormals and values outside that range are not; a row holding one is
  written with ``line % tuple(row)`` in its place.
"""

import functools
import itertools
import math

import numpy as np

_CHUNK_ROWS = 256  # rows formatted at once: keeps the work buffers small
_GATHER_BYTES = 1 << 18  # the layout's index buffer, whatever the width
_E_MIN, _E_MAX = -280, 280  # decimal exponents of the values decided here
_MARGIN = 1e-6  # a fraction of V this near 0.5 is left to the % fallback
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_WIDTH = 26  # -1.2345678901234567e-100, then the two separator slots
_NCLS = 24  # fixed e = -4 .. 16, exponent of 2 or 3 digits, zero
# Rows of the source matrix: row 0 is the first digit of D // 10**9 (always
# 0, read by no template), rows 1-17 the digits of D, 18-21 the exponent's
# sign and digits, then constants.
_CONSTANTS = b"-.0e,\0"
_MINUS, _DOT, _ZERO, _E, _COMMA, _NUL = range(22, 28)
_CRLF = np.frombuffer(b"\r\n", np.uint8)  # the last field's separator
_E0 = _E_MIN - 2  # the exponent at index 0 of the tables


@functools.cache
def _powers():
    """Tables over e = _E0 .. _E_MAX + 2, built exactly from Python ints.

    ``least`` is the smallest double >= 10**e; ``hi + lo`` is 10**(16 - e)
    to 2**-106 of it, ``hh + hl == hi`` its Dekker split; ``cls`` is the
    layout class of e and ``exp_chars`` the sign and three digits of e.
    """
    es = np.arange(_E0, _E_MAX + 3)
    least, hi, lo = [], [], []
    for e in es.tolist():
        # int / int is correctly rounded; (p, q) is the double h exactly
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        h = num / den
        p, q = h.as_integer_ratio()
        least.append(h if p * den >= num * q else math.nextafter(h, math.inf))
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    cls = np.where((es >= -4) & (es < 17), es + 4, 21 + (np.abs(es) >= 100))
    a = np.abs(es)
    exp_chars = np.array([np.where(es < 0, 45, 43), a // 100 + 48,
                          a // 10 % 10 + 48, a % 10 + 48], dtype=np.uint8)
    return np.array(least), hi, np.array(lo), hh, hi - hh, cls, exp_chars


@functools.cache
def _templates():
    """Source row of each slot, per (sign, class, digit count)."""
    t = np.full((2, _NCLS, 17, _WIDTH), _NUL, dtype=np.intp)
    t[..., _WIDTH - 2] = _COMMA
    for neg, cls, nd in itertools.product(range(2), range(_NCLS),
                                          range(1, 18)):
        digits = list(range(1, nd + 1))
        s = [_MINUS] if neg else []
        if 4 <= cls < 21:  # fixed, e = cls - 4 >= 0
            s += list(range(1, cls - 2))
            if nd > cls - 3:
                s += [_DOT] + digits[cls - 3:]
        elif cls < 4:  # fixed, e = cls - 4 < 0
            s += [_ZERO, _DOT] + [_ZERO] * (3 - cls) + digits
        elif cls < 23:  # exponent of 2 or 3 digits
            s += digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
            s += [_E, 18] + ([19] if cls == 22 else []) + [20, 21]
        else:
            s += [_ZERO]
        t[neg, cls, nd - 1, _WIDTH - 2 - len(s):_WIDTH - 2] = s
    return t.reshape(-1, _WIDTH)


def _float_digits(x):
    """17-digit integers D, exponents e and the decided mask of floats."""
    least, hi_t, lo_t, hh_t, hl_t = _powers()[:5]
    a = np.abs(x)
    ok = (a > 0) & (a < 1e300)  # False for nan
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, _E_MIN - 1, _E_MAX + 1, out=e)
    e -= a < least.take(e - _E0)  # log10 may round across a power of ten
    e += a >= least.take(e - _E0 + 1)
    ok &= (e >= _E_MIN) & (e <= _E_MAX)
    a[~ok] = 1.0
    e[~ok] = 0
    i = e - _E0
    hi, lo, hh, hl = hi_t.take(i), lo_t.take(i), hh_t.take(i), hl_t.take(i)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    top = a * hi  # an integer, as 10**16 <= top <= 10**17 and 2**53 < 10**16
    rest = (((ah * hh - top) + ah * hl) + al * hh) + al * hl + a * lo
    whole = np.floor(rest)
    frac = rest - whole
    ok &= np.abs(frac - 0.5) > _MARGIN
    d = top.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    ok &= d < 10 ** 17
    return d, e, ok


def _fallback_row(line, part, r):
    """Row ``r`` of the blocks in ``part`` through the format ``line``."""
    return line % tuple(v for b in part for v in b[r].tolist())


def _distinct_columns(blocks):
    """Which columns of ``blocks``, side by side, repeat the bits of an
    earlier one.  Returns the others as runs [block, slice of its columns],
    in order, and for every column the index among those others of the one
    that holds its bits.

    Columns are compared through int64 views of float64 blocks, so 0.0 and
    -0.0 differ and so do nans of different payloads.
    """
    n = blocks[0].shape[0]
    # three rows' bits pick the candidates, whole columns decide
    probe = [0, n // 2, n - 1] if n else []
    runs, source, seen = [], [], {}
    distinct = 0
    for b in blocks:
        bits = b.view(np.int64) if b.dtype == np.float64 else None
        for k in range(b.shape[1]):
            if bits is not None:
                col = bits[:, k]
                alike = seen.setdefault(tuple(col[probe].tolist()), [])
                same = [j for j, other in alike if np.array_equal(col, other)]
                if same:
                    source.append(same[0])
                    continue
                alike.append((distinct, col))
            source.append(distinct)
            distinct += 1
            if runs and runs[-1][0] is b and runs[-1][1].stop == k:
                runs[-1][1] = slice(runs[-1][1].start, k + 1)
            else:
                runs.append([b, slice(k, k + 1)])
    return runs, source


def write_rows(path, header, blocks):
    """Write ``header`` and the rows of ``blocks`` to ``path`` as CSV.

    ``blocks`` are 2-D float arrays with one row per sample, written side by
    side; every field is the text of "%.17g" and every line ends in CRLF,
    as csv.writer writes them.
    """
    ncols = sum(b.shape[1] for b in blocks)
    line = ",".join(["%.17g"] * ncols) + "\r\n"
    n = blocks[0].shape[0]
    runs, source = _distinct_columns(blocks)
    ndist = sum(cols.stop - cols.start for _, cols in runs)
    # work buffers for one full chunk of the distinct columns (the index
    # for one part of its gather), reused by every chunk
    chunk = min(n, _CHUNK_ROWS)
    size = chunk * ndist
    src = np.empty((22 + len(_CONSTANTS), size), np.uint8)
    src[22:] = np.frombuffer(_CONSTANTS, np.uint8)[:, None]
    digits = src[:18].reshape(2, 9, size)
    slots = _templates() * size
    gather = _GATHER_BYTES // (_WIDTH * np.dtype(np.intp).itemsize)
    index = np.empty((min(size, gather), _WIDTH), np.intp)
    chars = np.empty((size, _WIDTH), np.uint8)
    column = np.arange(size)[:, None]
    # the fields of every column, when some repeat another's
    text = (chars if ndist == ncols
            else np.empty((chunk * ncols, _WIDTH), np.uint8))
    cls_t, exp_t = _powers()[5:]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, n, _CHUNK_ROWS):
            x = np.concatenate([b[lo:lo + _CHUNK_ROWS, cols]
                                for b, cols in runs], axis=1, dtype=float)
            rows, m = x.shape[0], x.size
            x = x.ravel()
            d, e, ok = _float_digits(x)
            zero = x == 0
            neg = np.signbit(x)
            ok |= zero
            clear = ~ok | zero
            d[clear] = 10 ** 16
            e[clear] = 0

            # digits: D = H 10**9 + L, each half by 8 divisions in uint32
            # into source rows 0-8 (H, whose first digit is 0) and 9-17 (L)
            y = np.empty((2, m), np.int64)
            np.floor_divide(d, 10 ** 9, out=y[0])
            np.subtract(d, y[0] * 10 ** 9, out=y[1])
            y = y.astype(np.uint32)
            for k in range(8, 0, -1):
                q = y // 10
                y -= q * 10
                y += 48
                digits[:, k, :m] = y
                y = q
            digits[:, 0, :m] = y + 48
            # layout: the template of (sign, class of e, digits kept once
            # trailing zeros go) picks a source row for each slot
            kept = np.max(np.arange(1, 18, dtype=np.uint8)[:, None]
                          * (src[1:18, :m] != 48), axis=0)
            exp_t.take(e - _E0, axis=1, out=src[18:22, :m])
            cls = cls_t.take(e - _E0)
            cls[zero] = 23
            tid = (neg * _NCLS + cls) * 17 + kept - 1
            for a in range(0, m, gather):
                b = min(a + gather, m)
                slots.take(tid[a:b], axis=0, out=index[:b - a], mode="clip")
                index[:b - a] += column[a:b]
                src.take(index[:b - a], out=chars[a:b], mode="clip")

            # a repeated column copies its source's fields; the last
            # column's separator becomes the line's end
            fields = text[:rows * ncols].reshape(rows, ncols, _WIDTH)
            if text is not chars:
                chars[:m].reshape(rows, ndist, _WIDTH).take(
                    source, axis=1, out=fields, mode="clip")
            fields[:, -1, _WIDTH - 2:] = _CRLF

            # text: the compressed characters, with the rows holding an
            # undecided value written through "%" in their place
            lines = fields.reshape(rows, -1)
            undecided = ~ok.reshape(rows, -1).all(axis=1)
            start = 0
            part = [b[lo:lo + _CHUNK_ROWS] for b in blocks]
            for r in np.flatnonzero(undecided).tolist():
                done = lines[start:r]
                fh.write(done[done != 0])
                fh.write(_fallback_row(line, part, r).encode())
                start = r + 1
            done = lines[start:]
            fh.write(done[done != 0])
