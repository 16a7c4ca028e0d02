"""CSV rows of numeric columns, formatted in arrays.

:func:`write_csv_columns` writes integer and float columns exactly as
``'%d' %`` and ``'%.17g' %`` write their values, a block of rows at a time:
each block is one byte matrix of fixed-width fields, built from small
lookup tables with integer arithmetic in numpy, and written with its NUL
padding deleted.  ``write_dataset_csv`` and ``csps estimate`` both write
through it.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# rows are formatted a block at a time: only one block's byte matrix exists
# at once
_ROWS_PER_BLOCK = 2048


def _byte_table(rows, dtype) -> np.ndarray:
    """The rows of a byte matrix as read-only ``dtype`` words, bytes in memory order."""
    words = np.ascontiguousarray(rows, dtype=np.uint8).view(dtype)
    words.setflags(write=False)
    return words


# An integer field is a sign word and one uint32 word per base-10000 digit,
# from _INT_WORDS; a float field is six uint64 words, the AND of the value's
# words (from _FLOAT_WORDS) and its layout's (a row of _FLOAT_LAYOUTS), each
# 0xFF where the other decides.  The float field holds the sign, a "0.000"
# prefix, the 17 digits with a slot after each (digit j at byte 6 + 2 j), and
# an "e-05" suffix.  The tables are built when the module is first imported,
# on the first write.
_INT_ZERO, _INT_PLUS = 20000, 20001  # _INT_PLUS + 1 is the minus sign
_FLOAT_WIDTH = 48
_FIRST_WORD, _LAST_WORD = 10000, 10020
# The exact float path covers |x| in (1e-6, 1e17), whose decimal exponents e
# lie in [-6, 16]: its 17 significant digits are |x| * 10**(16 - e) rounded
# to an integer, and 10**0 .. 10**22 are exact float64s.
_EXACT_MIN, _EXACT_MAX = 1e-6, 1e17
_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64

_QUAD = np.arange(10000)[:, None]
_PLACES = np.array([1000, 100, 10, 1])
_QUAD_DIGITS = _QUAD // _PLACES % 10 + ord("0")  # 0..9999 as four ASCII digits
# 0..9999 as uint32s of four ASCII digits, then 10000 + g with g's leading
# zeros NUL (for the highest nonzero digit), then the word of the integer 0,
# the sign word of a non-negative integer (NUL) and that of a negative one
_INT_WORDS = _byte_table(np.concatenate((
    _QUAD_DIGITS, _QUAD_DIGITS * (_QUAD >= _PLACES),
    [[0, 0, 0, ord("0")], [0, 0, 0, 0], [0, 0, 0, ord("-")]],
)), np.uint32).ravel()
# 0..9999 as uint64s of four digits with a 0xFF slot after each, then
# 10000 + 10 s + d, the first word of a value with first digit d (negative if
# s is 1), then the word that passes the layout's suffix
_FLOAT_WORDS = _byte_table(np.concatenate((
    np.stack((_QUAD_DIGITS, np.full_like(_QUAD_DIGITS, 0xFF)), axis=2).reshape(-1, 8),
    np.column_stack((
        np.repeat([0, ord("-")], 10), np.full((20, 5), 0xFF),
        np.tile(np.arange(10) + ord("0"), 2), np.full(20, 0xFF),
    )),
    np.full((1, 8), 0xFF),
)), np.uint64).ravel()
# the trailing zeros of 0..9999 as four digits (4 for 0)
_QUAD_ZEROS = sum(_QUAD[:, 0] % step == 0 for step in (10, 100, 1000, 10000))


def _float_layouts() -> np.ndarray:
    """The ``%.17g`` layout words of every (exponent, trailing zeros) pair.

    Row ``(e + 6) * 17 + z`` is the layout of a value with decimal exponent
    ``e`` in [-6, 16] whose 17 significant digits end in ``z`` zeros (``z``
    at most 16).  It is 0xFF at the sign and at each digit shown, and holds
    the prefix, the point in its slot and the suffix, NUL elsewhere.  As
    ``%g`` does, exponents from -4 up take fixed notation, with 16 - e
    places after the point, and -5 and -6 take ``e-05`` and ``e-06``;
    trailing zeros after the point, and a point with nothing after it, are
    dropped.
    """
    layouts = np.zeros((23 * 17, _FLOAT_WIDTH), np.uint8)
    layouts[:, 0] = 0xFF
    for e in range(-6, 17):
        for zeros in range(17):
            significant = 17 - zeros
            if e >= -4:
                shown, point = max(significant, e + 1), e
                prefix, suffix = "0." + "0" * (-1 - e) if e < 0 else "", ""
            else:
                shown, point, prefix, suffix = significant, 0, "", f"e-{-e:02d}"
            row = layouts[(e + 6) * 17 + zeros]
            row[1:1 + len(prefix)] = np.frombuffer(prefix.encode(), np.uint8)
            row[6:6 + 2 * shown:2] = 0xFF
            if 0 <= point < shown - 1:
                row[7 + 2 * point] = ord(".")
            row[40:40 + len(suffix)] = np.frombuffer(suffix.encode(), np.uint8)
    return _byte_table(layouts, np.uint64)


_FLOAT_LAYOUTS = _float_layouts()


def _base10000(magnitude: np.ndarray, num_groups: int) -> np.ndarray:
    """The ``(num_groups, n)`` base-10000 digits of non-negative integers, as intp.

    ``magnitude`` is int64 or uint64 below ``10000**num_groups``; the most
    significant digit comes first.
    """
    groups = np.empty((num_groups, len(magnitude)), np.intp)
    for g in range(num_groups - 1, 0, -1):
        quotient = magnitude // 10000
        groups[g] = magnitude - quotient * 10000
        magnitude = quotient
    groups[0] = magnitude
    return groups


def _scaled_rounded(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``a * 10**(16 - e)`` rounded half to even, as int64.

    ``e`` lies in [-6, 16] and ``a`` below 1e17, so the power is exact and
    the product below 10**18.  Dekker's two-product gives the float product
    ``p`` and its error ``err``, with ``p + err`` exactly the product.  Where
    ``p`` is at least 2**53 it is an integer, and the result is ``p`` plus
    ``err`` rounded; where it is below, the result is below 10**16 and only
    that is known of it.
    """
    b = _POW10[16 - e]
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    whole = np.floor(err)
    frac = err - whole
    m = p.astype(np.int64) + whole.astype(np.int64)
    m += (frac > 0.5) | ((frac == 0.5) & (m & 1 == 1))
    return m


def _float_fields(x: np.ndarray) -> np.ndarray:
    """The ``(n, 48)`` byte fields of float64 ``x``, as ``'%.17g' %`` writes them.

    Zero and |x| in (1e-6, 1e17) are formatted in arrays: the decimal
    exponent ``e`` is ``floor(log10(|x|))``, moved one up or down where the
    rounded digits ``m`` (see :func:`_scaled_rounded`) do not have exactly
    17 digits.  Every other value (non-finite, or outside that range) is
    formatted with ``'%.17g' %``, value by value.  Bytes not in a field are
    NUL.
    """
    a = np.abs(x)
    exact = (a > _EXACT_MIN) & (a < _EXACT_MAX)
    a = np.where(exact, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    m = _scaled_rounded(a, e)
    # floor(log10) can be one off near a power of ten, and the digits say
    # which way.  One step is enough: no float64 lies within half a unit of
    # the 17th digit below a power of ten (its spacing there is wider), so
    # none rounds up to 10**17.
    up, down = m >= 10 ** 17, m < 10 ** 16
    moved = np.flatnonzero(up | down)
    if len(moved):
        e[moved] = np.clip(e[moved] + up[moved] - down[moved], -6, 16)
        m[moved] = _scaled_rounded(a[moved], e[moved])
    zero = x == 0
    exact |= zero
    m[zero] = 0
    e[zero] = 0

    words = np.empty((6, len(x)), np.intp)
    words[:5] = _base10000(m, 5)
    # trailing zeros of the last 16 digits: a group's own, plus those of the
    # groups above it where it is all zeros
    ends = np.take(_QUAD_ZEROS, words[1:5])
    zeros = ends[0]
    for j in (1, 2, 3):
        zeros = ends[j] + (ends[j] == 4) * zeros
    words[0] += _FIRST_WORD + 10 * np.signbit(x)
    words[5] = _LAST_WORD
    fields = np.take(_FLOAT_LAYOUTS, (e + 6) * 17 + zeros, axis=0)
    fields &= np.take(_FLOAT_WORDS, words.T)
    fields = fields.view(np.uint8)
    other = np.flatnonzero(~exact)
    if len(other):
        text = "".join(("%.17g" % v).ljust(_FLOAT_WIDTH, "\0") for v in x[other].tolist())
        fields[other] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _FLOAT_WIDTH)
    return fields


def _int_fields(values: np.ndarray, num_digits: int) -> np.ndarray:
    """The ``(n, 4 + 4 g)`` byte fields of integers, as ``'%d' %`` writes them.

    ``values`` is an integer or unsigned array whose magnitudes have at
    most ``num_digits`` digits, ``g`` base-10000 digits.  The first word is
    the sign; leading zeros are NUL, as is a sign that is not there.
    """
    negative = values < 0
    magnitude = values.astype(np.uint64)
    magnitude = np.where(negative, -magnitude, magnitude)  # two's complement in uint64
    num_groups = -(-num_digits // 4)
    words = np.empty((1 + num_groups, len(values)), np.intp)
    words[0] = _INT_PLUS + negative
    groups = _base10000(magnitude, num_groups)
    leading = np.ones(len(values), bool)  # every higher group is 0
    for g in range(num_groups):
        words[1 + g] = groups[g] + 10000 * leading
        leading &= groups[g] == 0
    words[num_groups] += (_INT_ZERO - 10000) * leading  # the integer 0
    return np.take(_INT_WORDS, words.T).view(np.uint8)


def write_csv_columns(path, header: list[str], columns: list, num_rows: int) -> None:
    """Write a header row and ``num_rows`` rows of ``columns`` as CSV.

    Each column is an integer, unsigned or float array of ``num_rows``
    entries, or a masked array of one; anything else is a ``ValueError``,
    raised before the file is opened.  Floats are written exactly as
    ``'%.17g' % v`` writes them (so float64 round-trips), integers as
    ``'%d' % v`` does, and masked entries as empty fields.  Numbers and
    empty fields hold no delimiter, quote or line break, so ``csv.writer``
    would write them unquoted: each block of rows is one byte matrix of
    fixed-width fields, commas and ``\r\n`` line ends, NUL wherever a field
    is shorter, written with the NULs deleted.  In a block, the float
    columns are formatted together (:func:`_float_fields`), and so are the
    integer columns of each digit count (:func:`_int_fields`).
    """
    kinds: dict = {}  # "f", or an integer digit count: [(offset, values, blank)]
    ends = []  # the byte after each field
    width = 0
    for name, column in zip(header, columns):
        if not isinstance(column, np.ndarray) or column.dtype.kind not in "fiu":
            raise ValueError(f"column {name!r} is not an integer or float array")
        if len(column) != num_rows:
            raise ValueError(f"column {name!r} has the wrong length")
        blank = np.ma.getmaskarray(column) if np.ma.isMaskedArray(column) else None
        kind = "f" if column.dtype.kind == "f" else len(str(np.iinfo(column.dtype).max))
        kinds.setdefault(kind, []).append((width, np.ma.getdata(column), blank))
        width += _FLOAT_WIDTH if kind == "f" else 4 + 4 * -(-kind // 4)
        ends.append(width)
        width += 1
    separators = np.zeros(width + 1, np.uint8)
    separators[ends] = ord(",")
    separators[-2:] = np.frombuffer(b"\r\n", np.uint8)  # after the last field

    text = io.StringIO()
    csv.writer(text).writerow(header)
    with open(path, "wb") as fh:
        fh.write(text.getvalue().encode("utf-8"))
        for start in range(0, num_rows, _ROWS_PER_BLOCK):
            block = slice(start, min(start + _ROWS_PER_BLOCK, num_rows))
            rows = np.empty((block.stop - start, len(separators)), np.uint8)
            rows[:] = separators
            for kind, spec in kinds.items():
                values = np.stack([column[block] for _, column, _ in spec], axis=1)
                for j, (_, _, blank) in enumerate(spec):
                    if blank is not None:
                        values[blank[block], j] = 0  # a masked NaN takes the array path
                if kind == "f":
                    fields = _float_fields(values.astype(np.float64, copy=False).ravel())
                else:
                    fields = _int_fields(values.ravel(), kind)
                fields = fields.reshape(len(rows), len(spec), -1)
                for j, (offset, _, blank) in enumerate(spec):
                    out = rows[:, offset:offset + fields.shape[2]]
                    out[:] = fields[:, j]
                    if blank is not None:
                        out[blank[block]] = 0
            fh.write(rows.tobytes().translate(None, b"\0"))
