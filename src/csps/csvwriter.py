"""CSV rows of numeric columns, formatted in arrays.

:func:`write_csv_columns` writes integer and float columns exactly as
``'%d' %`` and ``'%.17g' %`` write their values, a block of rows at a time.
Each block is one matrix of uint64 words in which every field starts on a
word and takes only the bytes its values can need: four words for a float
(:func:`_float_words`), and for an integer as many as the base-10000 digits
of its column's largest magnitude need (:func:`_int_words`).  The fields
are built from small lookup tables with integer arithmetic in numpy, the
commas and line ends are ORed in from one row template, and the block is
written with its NUL bytes deleted.  ``write_dataset_csv`` and ``csps
estimate`` both write through it.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import InvalidArgument

# rows are formatted a block at a time: only one block's word matrix exists
# at once
_ROWS_PER_BLOCK = 2048


# a field's words hold its bytes in file order, the first in the low byte
_WORD = np.dtype("<u8")


def _byte_table(rows) -> np.ndarray:
    """The rows of a byte matrix, a multiple of 8 bytes wide, as read-only words."""
    words = np.ascontiguousarray(rows, dtype=np.uint8).view(_WORD)
    words.setflags(write=False)
    return words


# Fields are assembled from slots of four bytes, looked up in _WORDS (each
# in the low half of a word) and paired into words.  An integer field is a
# sign slot (NUL, or '-' in its last byte) and one slot per base-10000
# digit, shifted down three bytes so that the sign is the field's first
# byte.  A float field is four words: the sign at byte 0, a right-aligned
# "0."/"0.000" prefix in bytes 1-5, digit j of the 17 at byte 6 + j where it
# comes before the point and at byte 7 + j where it comes after it, so that
# the point falls in the gap at byte 7 + e, and an "e-05" suffix at bytes
# 24-27.  The last two bytes of every field are NUL, for the row template's
# separator.  The tables are built when the module is first imported, on
# the first write.
_FLOAT_WORDS = 4
# The exact float path covers |x| in (1e-6, 1e17), whose decimal exponents e
# lie in [-6, 16]: its 17 significant digits are |x| * 10**(16 - e) rounded
# to an integer, and 10**0 .. 10**22 are exact float64s.
_EXACT_MIN, _EXACT_MAX = 1e-6, 1e17
_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)  # their high and low halves
_POW10_LO = _POW10 - _POW10_HI

_QUAD = np.arange(10000)[:, None]
_PLACES = np.array([1000, 100, 10, 1])
_QUAD_DIGITS = _QUAD // _PLACES % 10 + ord("0")  # 0..9999 as four ASCII digits
_LEADING = _QUAD_DIGITS * (_QUAD >= _PLACES)  # leading zeros NUL, 0 all NUL
# _WORDS: 0..9999 as four ASCII digits; then _LAST + g, g with leading zeros
# NUL and 0 as "0" (an integer's last digit); then _HIGHER + g, the same
# with 0 all NUL (a higher digit); then the NUL word and the minus sign
_LAST, _HIGHER, _NUL = 10000, 20000, 30000
_WORDS = _byte_table(np.pad(np.concatenate((
    _QUAD_DIGITS, _LEADING + (_QUAD == 0) * [0, 0, 0, ord("0")], _LEADING,
    [[0, 0, 0, 0], [0, 0, 0, ord("-")]],
)), ((0, 0), (0, 4)))).ravel()
# a float's first word, the sign at byte 0 and the first digit d at byte 7:
# d for a positive value, 10 + d for a negative one
_FLOAT_FIRST = _byte_table(np.column_stack((
    np.repeat([0, ord("-")], 10), np.zeros((20, 6)), np.tile(np.arange(10) + ord("0"), 2),
))).ravel()
# the trailing zeros of 0..9999 as four digits (4 for 0)
_QUAD_ZEROS = sum(_QUAD[:, 0] % step == 0 for step in (10, 100, 1000, 10000)).astype(np.uint8)


def _float_layouts() -> np.ndarray:
    """The ``%.17g`` layout of every (exponent, trailing zeros) pair, as uint64 words.

    Row ``(e + 6) * 17 + z`` is the layout of a value with decimal exponent
    ``e`` in [-6, 16] whose 17 significant digits end in ``z`` zeros (``z``
    at most 16).  Its ten words are a mask of the digits read before the
    point (three words), a mask of the sign and the digits read after it
    (three words), and the constant bytes: the prefix, the point and the
    suffix (four words).  As ``%g`` does, exponents from -4 up take fixed
    notation, with 16 - e places after the point, and -5 and -6 take
    ``e-05`` and ``e-06``; trailing zeros after the point, and a point with
    nothing after it, are dropped.
    """
    layouts = np.zeros((23 * 17, 10 * 8), np.uint8)
    for e in range(-6, 17):
        for zeros in range(17):
            significant = 17 - zeros
            if e >= -4:
                before = e + 1 if e >= 0 else significant
                prefix, suffix = "0." + "0" * (-1 - e) if e < 0 else "", ""
            else:
                before, prefix, suffix = 1, "", f"e-{-e:02d}"
            shown = max(significant, before)
            row = layouts[(e + 6) * 17 + zeros]
            before_mask, after_mask, consts = row[:24], row[24:48], row[48:]
            before_mask[6:6 + before] = 0xFF
            after_mask[0] = 0xFF
            after_mask[7 + before:7 + shown] = 0xFF
            if shown > before:
                consts[6 + before] = ord(".")
            consts[6 - len(prefix):6] = np.frombuffer(prefix.encode(), np.uint8)
            consts[24:24 + len(suffix)] = np.frombuffer(suffix.encode(), np.uint8)
    return _byte_table(layouts.reshape(-1, 10, 8).transpose(1, 0, 2))[..., 0]  # a row per word


_FLOAT_LAYOUTS = _float_layouts()


def _base10000(magnitude: np.ndarray, rows: list) -> None:
    """Write the base-10000 digits of non-negative integers into ``rows``.

    ``magnitude`` is int64 or uint64 below ``10000**len(rows)``; ``rows``
    are intp arrays of its length, the most significant digit's first.
    """
    for row in rows[:0:-1]:
        quotient = magnitude // 10000
        np.subtract(magnitude, quotient * 10000, out=row, casting="unsafe")
        magnitude = quotient
    rows[0][...] = magnitude


def _paired_words(slots: np.ndarray) -> np.ndarray:
    """The ``(k, n)`` words of ``(2, k, n)`` slot indices into ``_WORDS``: the
    slots of ``slots[0]`` in the low halves, of ``slots[1]`` in the high."""
    words = np.take(_WORDS, slots[1])
    words <<= 32
    words |= np.take(_WORDS, slots[0])
    return words


def _scaled_rounded(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``a * 10**(16 - e)`` rounded half to even, as int64.

    ``e`` lies in [-6, 16] and ``a`` below 1e17, so the power is exact and
    the product below 10**18.  Dekker's two-product gives the float product
    ``p`` and its error ``err``, with ``p + err`` exactly the product.  Where
    ``p`` is at least 2**53 it is an even integer, and the result is ``p``
    plus ``err`` rounded half to even; where it is below, the result is
    below 10**16 and only that is known of it.
    """
    k = 16 - e
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    p = a * _POW10[k]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = a_hi * b_hi
    err -= p
    err += a_hi * b_lo
    err += a_lo * b_hi
    err += a_lo * b_lo
    m = p.astype(np.int64)
    m += np.rint(err).astype(np.int64)
    return m


def _float_words(x: np.ndarray) -> np.ndarray:
    """The ``(4, n)`` words of the fields of float64 ``x``, a row per word, as
    ``'%.17g' %`` writes them.

    Zero and |x| in (1e-6, 1e17) are formatted in arrays: the decimal
    exponent ``e`` is ``floor(log10(|x|))``, moved one up or down where the
    rounded digits ``m`` (see :func:`_scaled_rounded`) do not have exactly
    17 digits.  The digits are placed twice, at bytes 7 + j (``after``) and
    6 + j (``before``, the same words shifted down a byte), and the field
    is ``(before & mask) | (after & mask) | consts`` with the masks and
    constants of the value's layout row.  Every other value (non-finite, or
    outside that range) is formatted with ``'%.17g' %``, value by value.
    Bytes not in a field are NUL.
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

    # the digits at 7 + j: the sign and first digit, then four slots of four
    # that pair into two words
    first = np.empty(len(x), np.intp)
    slots = np.empty((2, 2, len(x)), np.intp)
    lo, hi = slots
    _base10000(m, [first, lo[0], hi[0], lo[1], hi[1]])
    first += 10 * np.signbit(x)
    # trailing zeros of the last 16 digits: a group's own, plus those of the
    # groups above it where it is all zeros
    zeros = np.take(_QUAD_ZEROS, hi[1])
    deeper = np.flatnonzero(zeros == 4)
    for group in (lo[1], hi[0], lo[0]):
        if not len(deeper):
            break
        more = np.take(_QUAD_ZEROS, group[deeper])
        zeros[deeper] += more
        deeper = deeper[more == 4]
    after = np.empty((3, len(x)), _WORD)
    np.take(_FLOAT_FIRST, first, out=after[0])
    after[1:] = _paired_words(slots)
    before = after >> 8
    before[:2] |= after[1:] << 56
    layout = np.take(_FLOAT_LAYOUTS, (e + 6) * 17 + zeros, axis=1)
    fields = np.empty((_FLOAT_WORDS, len(x)), _WORD)
    digits = fields[:3]
    np.bitwise_and(before, layout[0:3], out=digits)
    after &= layout[3:6]
    digits |= after
    digits |= layout[6:9]
    fields[3] = layout[9]
    other = np.flatnonzero(~exact)
    if len(other):
        text = "".join(("%.17g" % v).ljust(8 * _FLOAT_WORDS, "\0") for v in x[other].tolist())
        fields[:, other] = np.frombuffer(text.encode("ascii"), _WORD).reshape(-1, _FLOAT_WORDS).T
    return fields


def _int_groups(values: np.ndarray) -> int:
    """The base-10000 digits the largest magnitude of integer ``values`` needs (1 for none)."""
    if not len(values):
        return 1
    largest = max(-int(values.min()), int(values.max()))
    return -(-len(str(largest)) // 4)


def _int_words(values: np.ndarray, num_groups: int) -> np.ndarray:
    """The ``((num_groups + 2) // 2, n)`` words of the fields of integers, a row
    per word, as ``'%d' %`` writes them.

    ``values`` is an int64 or uint64 array whose magnitudes have at most
    ``num_groups`` base-10000 digits.  The sign, if there is one, is
    the field's first byte and the digits follow, leading zeros NUL; the
    last two bytes are always NUL.
    """
    negative = values < 0
    # the int64 minimum is its own absolute value, and its magnitude as uint64
    magnitude = np.abs(values).astype(np.uint64)
    num_words = (num_groups + 2) // 2
    slots = np.full((2, num_words, len(values)), _NUL, np.intp)
    rows = [slots[s % 2, s // 2] for s in range(1 + num_groups)]  # sign, then digits
    rows[0] += negative  # _NUL + 1 is the minus sign
    _base10000(magnitude, rows[1:])
    leading = np.ones(len(values), bool)  # every higher group is 0
    for row in rows[1:-1]:
        zero = row == 0
        row += _HIGHER * leading
        leading &= zero
    rows[-1] += _LAST * leading
    words = _paired_words(slots)
    fields = words >> 24  # the sign slot's three leading NULs leave the field
    fields[:-1] |= words[1:] << 40
    return fields


def write_csv_columns(path, header: list[str], columns: list, num_rows: int) -> None:
    """Write a header row and ``num_rows`` rows of ``columns`` as CSV.

    Each column is an integer, unsigned or float array of ``num_rows``
    entries, or a masked array of one; anything else is an
    :class:`~csps.errors.InvalidArgument`, a ``ValueError``, raised before
    the file is opened.  Floats are written exactly as
    ``'%.17g' % v`` writes them (so float64 round-trips), integers as
    ``'%d' % v`` does, and masked entries as empty fields.  Numbers and
    empty fields hold no delimiter, quote or line break, so ``csv.writer``
    would write them unquoted: each block of rows is one uint64 word matrix
    of word-aligned fields, NUL wherever a field is shorter than its words,
    with the commas and ``\r\n`` line ends ORed in from one row template in
    the last bytes of each field, written with the NULs deleted.  A float
    field is four words; an integer column's fields take the base-10000
    digits its largest unmasked magnitude needs (:func:`_int_groups`), two
    to a word beside the sign.  In a block, the float columns are formatted
    together (:func:`_float_words`), and so are the integer columns of each
    digit count (:func:`_int_words`).
    """
    # "f", or an integer (digit count, dtype): [(word offset, values, blank)]
    kinds: dict = {}
    ends = []  # the word after each field
    width = 0
    for name, column in zip(header, columns):
        if not isinstance(column, np.ndarray) or column.dtype.kind not in "fiu":
            raise InvalidArgument(f"column {name!r} is not an integer or float array")
        if len(column) != num_rows:
            raise InvalidArgument(f"column {name!r} has the wrong length")
        blank = np.ma.getmaskarray(column) if np.ma.isMaskedArray(column) else None
        values = np.ma.getdata(column)
        if values.dtype.kind == "f":
            kind, num_words = "f", _FLOAT_WORDS
        else:
            num_groups = _int_groups(values if blank is None else values[~blank])
            # signed and unsigned columns stack as int64, unless past it
            past = num_groups == 5 and values.dtype.kind == "u"
            kind, num_words = (num_groups, np.uint64 if past else np.int64), (num_groups + 2) // 2
        kinds.setdefault(kind, []).append((width, values, blank))
        width += num_words
        ends.append(width)
    template = np.zeros(8 * width, np.uint8)
    template[8 * np.array(ends[:-1], dtype=np.intp) - 1] = ord(",")
    template[-2:] = np.frombuffer(b"\r\n", np.uint8)  # after the last field
    template = template.view(_WORD)

    text = io.StringIO()
    csv.writer(text).writerow(header)
    with open(path, "wb") as fh:
        fh.write(text.getvalue().encode("utf-8"))
        for start in range(0, num_rows, _ROWS_PER_BLOCK):
            block = slice(start, min(start + _ROWS_PER_BLOCK, num_rows))
            rows = np.empty((block.stop - start, width), _WORD)
            unmasked = np.zeros(len(rows), bool)
            for kind, spec in kinds.items():
                dtype = np.float64 if kind == "f" else kind[1]
                values = np.stack([column[block] for _, column, _ in spec], dtype=dtype).ravel()
                blank = None
                if any(b is not None for _, _, b in spec):
                    blank = np.stack([unmasked if b is None else b[block] for _, _, b in spec]).ravel()
                    values[blank] = 0  # a masked NaN takes the array path
                if kind == "f":
                    fields = _float_words(values)
                else:
                    fields = _int_words(values, kind[0])
                if blank is not None:
                    fields[:, blank] = 0
                fields = fields.reshape(len(fields), len(spec), -1)
                for j, (offset, _, _) in enumerate(spec):
                    rows[:, offset:offset + len(fields)] = fields[:, j].T
            rows |= template
            fh.write(rows.tobytes().translate(None, b"\0"))
