"""Plot-ready CSV and JSON emission with byte-deterministic formatting,
and the one reader of text input files.  A CSV float cell is repr's text,
from one numpy kernel; an integer cell is str's, printed cell by cell."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError


#: Rows formatted per write by write_table: bounds its working memory and
#: leaves the bytes unchanged.
_ROW_BLOCK = 1024

#: Cell layout, in 4-byte words: sign, up to 4 groups of 4 integer
#: places, the point, 5 groups of 4 fraction places, and 2 words of
#: exponent and separator.  Unused bytes hold NUL and are dropped on
#: output; the first character of a word is its lowest byte.
_WORDS = 13
_LE = np.dtype("<u4")
#: The word table (_word_table): NUL, then each 4-digit group with its
#: leading zeros as NUL, in full, and with its trailing zeros as NUL
#: (but 0 as "0"), then "-", ".", the first word of "e%+03d" % e for
#: each exponent e, and the fifth character of each exponent (or none)
#: followed by "," or "\n".
_GROUP = 10_000
_FULL, _TRAIL = 1 + _GROUP, 1 + 2 * _GROUP
_SIGN = 1 + 3 * _GROUP
_POINT = _SIGN + 1
_EXP_SPAN = 330  # exponents of the "e" notation lie within +-_EXP_SPAN
_EXP1 = _POINT + 1 + _EXP_SPAN  # + e
_EXP2 = _EXP1 + _EXP_SPAN + 1  # + 2 * (e + _EXP_SPAN + 1, or 0) + last

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
#: 10**0 .. 10**18, every power of ten that fits in int64.
_P10 = np.array([10**i for i in range(19)], dtype=np.int64)
#: Powers of ten that lay out a cell s * 10**-t, t in [-15, 20], in
#: column t + 15: s // 10**t is the integer part, times 10**-t when t < 0;
#: the fraction then splits into its digits 17-20 and 1-16, each scaled
#: to fill its places.
_SCALE = _P10[np.array([[min(max(t, 0), 18), max(-t, 0), min(max(t - 16, 0), 4),
                         4 - min(max(t - 16, 0), 4), min(max(16 - t, 0), 16)]
                        for t in range(-15, 21)]).T]


@functools.cache
def _tables():
    """(g, (pairs, lead, trail), small): Schubfach's g table, the two
    digits of each number below 100 as a word in full, without a leading
    zero and without a trailing zero, and the words after the groups in
    the word table; about 30 KB, built on first use so that importing
    the package does not pay for them.

    g holds four 32-bit limbs, least significant first: entry e + 292 is
    floor(10**e / 2**r) + 1 for e in [-292, 324], where r puts it in
    [2**127, 2**128).
    """
    tens = [1]
    for _ in range(324):
        tens.append(tens[-1] * 10)
    gs = []
    for e in range(-292, 325):
        p = tens[abs(e)]
        n = p.bit_length()
        if e >= 0:
            gs.append((p >> (n - 128) if n >= 128 else p << (128 - n)) + 1)
        else:
            gs.append((1 << (127 + n)) // p + 1)
    g = np.frombuffer(b"".join(x.to_bytes(16, "little") for x in gs), "<u4")
    g = tuple(g.reshape(-1, 4).T.astype(_U64))
    pairs = ["%02d" % i for i in range(100)]
    # Pairs without a leading or a trailing zero; 0 keeps one "0".
    lead = ["\0" + "0"] + [p.lstrip("0").rjust(2, "\0") for p in pairs[1:]]
    trail = ["0"] + [p.rstrip("0") for p in pairs[1:]]
    pairs, lead, trail = (np.frombuffer("".join(w.ljust(4, "\0") for w in ws).encode(), _LE)
                          for ws in (pairs, lead, trail))
    # "e", the exponent's sign and digits, then "," or "\n".
    e = np.arange(-_EXP_SPAN, _EXP_SPAN + 1)
    a = np.abs(e)
    three = a >= 100
    digits = 48 + np.where(three, [a // 100, a // 10 % 10, a % 10],
                           [a // 10, a % 10, np.full_like(a, -48)])
    exp1 = (ord("e") | np.where(e < 0, ord("-"), ord("+")) << 8
            | digits[0] << 16 | digits[1] << 24)
    exp2 = np.concatenate([[0], digits[2]])[:, None] | np.array([ord(","), ord("\n")]) << 24
    small = np.concatenate([[ord("-"), ord(".")], exp1, exp2.ravel()]).astype(_LE)
    return g, (pairs, lead, trail), small


def _word_table() -> np.ndarray:
    """The word table laid out at _GROUP.  Its 120 KB of group words are
    built from the pair words for each table written and dropped after
    it, so no memory is kept between writes."""
    _, (pairs, lead, trail), small = _tables()
    words = np.empty((3, 100, 100), _LE)  # [form, first pair, second pair]
    np.bitwise_or(lead[:, None], pairs << np.uint32(16), out=words[0])
    words[0, 0] = lead << np.uint32(16)
    np.bitwise_or(pairs[:, None], pairs << np.uint32(16), out=words[1])
    np.bitwise_or(pairs[:, None], trail << np.uint32(16), out=words[2])
    words[2, :, 0] = trail
    return np.concatenate([np.zeros(1, _LE), words.ravel(), small])


def _round_to_odd(g, cp):
    """floor(g * cp / 2**128), its lowest bit set when the 64 bits below
    it exceed 1: Schubfach's rop().  g is 128-bit as four 32-bit limbs,
    cp is below 2**60 and is overwritten; the 192-bit product is summed
    column by column from 32 x 32-bit limb products, in place."""
    g0, g1, g2, g3 = g
    c1 = cp >> _U64(32)
    c0 = cp
    c0 &= _M32
    col = g0 * c0
    col >>= _U64(32)
    t = g1 * c0
    col += t & _M32
    hi = t >> _U64(32)
    np.multiply(g0, c1, out=t)
    col += t & _M32
    t >>= _U64(32)
    hi += t
    sticky = []  # bits 64-95 of the product above 1, bits 96-127 above 0
    for a, b, floor in ((g2, g1, _U64(1)), (g3, g2, _U64(0))):
        col >>= _U64(32)
        col += hi
        np.multiply(a, c0, out=t)
        col += t & _M32
        np.right_shift(t, _U64(32), out=hi)
        np.multiply(b, c1, out=t)
        col += t & _M32
        t >>= _U64(32)
        hi += t
        sticky.append((col & _M32) > floor)
    col >>= _U64(32)
    col += hi
    np.multiply(g3, c1, out=t)
    col += t
    col |= sticky[0] | sticky[1]
    return col


def _shortest(bits):
    """Shortest round-trip decimal (s, k), value = s * 10**k, of normal
    doubles given as their bits (Giulietti's Schubfach); s may end in
    zeros."""
    g = _tables()[0]
    be = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    c = bits & _U64((1 << 52) - 1)
    closer = (c == 0) & (be > 1)  # 2**q has its lower neighbour closer
    c |= _U64(1 << 52)
    q = be - 1075
    k = (q * 1262611 - closer * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(_U64)
    del be, q
    # The interval ends and the value, scaled: one product for all three.
    cp = np.empty((3,) + c.shape, _U64)
    np.left_shift(c, _U64(2), out=cp[1])
    cp[0] = cp[1] - _U64(2) + closer
    cp[2] = cp[1] + _U64(2)
    cp <<= h
    del h, closer
    e = 292 - k
    lower, vb, upper = _round_to_odd(tuple(limb.take(e) for limb in g), cp)
    del cp
    odd = c & _U64(1)
    lower += odd
    upper -= odd
    # One digit fewer if exactly one of its two candidates lies in the
    # interval; else the one of s and s + 1 in it; else the nearer one,
    # ties to even.  s >= 10 holds for every normal double.
    s = vb >> _U64(2)
    sp = vb // _U64(40)
    up_in = lower <= sp * _U64(40)
    wp_in = sp * _U64(40) + _U64(40) <= upper
    short = up_in != wp_in
    u_in = lower <= vb & ~_U64(3)
    w_in = (vb | _U64(3)) + _U64(1) <= upper
    up = np.where(u_in != w_in, w_in, (vb & _U64(3)) + (s & _U64(1)) > _U64(2))
    s = np.where(short, sp + wp_in, s + up)
    return s.astype(np.int64), k + short


def _float_fields(x):
    """Layout fields of float64 cells, as repr(float) prints them.

    Returns (neg, s, t, sci, exponent, rare): the cell prints s * 10**-t,
    with "e" + exponent and no ".0" where sci; rare marks the cells the
    kernel does not print (nan, inf, subnormal).  s may end in zeros:
    the layout drops them after the point.
    """
    bits = x.view(_U64).copy()
    neg = bits >= _U64(1 << 63)
    bits &= _U64((1 << 63) - 1)
    zero = bits == 0
    rare = (bits >= _U64(0x7FF << 52)) | ((bits < _U64(1 << 52)) & ~zero)
    # Zero and rare cells go through as 1.0 and are patched afterwards.
    bits[zero | rare] = _U64(1023 << 52)
    s, k = _shortest(bits)
    del bits
    s[zero] = 0
    k[zero] = 0
    n = np.searchsorted(_P10[1:], s, side="right") + 1
    point = n + k  # digits before the point, as in repr's decpt
    sci = (point < -3) | (point > 16)
    return neg, s, np.where(sci, n - 1, -k), sci, point - 1, rare


def _words(neg, s, t, sci, exponent, k, table):
    """(words, cells) text of cells in rows of k, NUL-padded.

    s * 10**-t is split at the point into 4-digit groups, up to 4 before
    it and 5 after.  Groups before the first nonzero one print as NUL,
    the first in its leading-NUL form; after the point, groups past the
    last nonzero one print as NUL and the last in its trailing-NUL form,
    with a "0" kept unless sci.  One lookup in table gives every word.
    Only as many integer groups as the largest cell needs are laid out,
    with the sign just before them.  Arrays are (word, cell), so each
    operation runs along the cells.
    """
    idx = np.empty((_WORDS, len(s)), np.intp)
    split, raise_, spill, spill_up, top_up = _SCALE.take(t + 15, axis=1)
    eight = np.empty((2, len(s)), np.int64)
    eight[0] = s // split
    f = s - eight[0] * split
    eight[0] *= raise_
    first = 3 - int(np.searchsorted(_P10[4:16:4], eight[0].max(), side="right"))
    eight[1] = f // spill
    idx[10] = (f - eight[1] * spill) * spill_up  # fraction digits 17-20
    eight[1] *= top_up  # fraction digits 1-16
    del f, split, raise_, spill, spill_up, top_up
    # Integer groups are words 1-4, fraction groups words 6-10.
    hi = eight // _P10[8]
    eight -= hi * _P10[8]
    idx[1:7:5] = hi // _GROUP
    idx[2:8:5] = hi - idx[1:7:5] * _GROUP
    idx[3:9:5] = eight // _GROUP
    idx[4:10:5] = eight - idx[3:9:5] * _GROUP
    del hi, eight

    # seen: a nonzero group at or before it (integer part) or at or
    # after it (fraction).  A group that is not seen is 0, so adding
    # seen selects NUL, leading-NUL, full or trailing-NUL words.
    used = idx[first:]  # the sign goes in word `first`, before the groups
    seen = used != 0
    p = 5 - first  # the point's word in used
    seen[p - 1] = True
    seen[p + 1] |= ~sci
    for j in range(2, p):
        seen[j] |= seen[j - 1]
    for j in range(p + 4, p, -1):
        seen[j] |= seen[j + 1]
    used[1:p] += seen[1:p]
    used[2:p] += seen[1:p - 1] * _GROUP
    used[p + 1:p + 6] += seen[p + 1:p + 6] * _TRAIL
    used[p + 1:p + 5] -= seen[p + 2:p + 6] * (_TRAIL - _FULL)
    used[0] = neg * _SIGN
    used[p] = seen[p + 1] * _POINT
    used[p + 6] = sci * (_EXP1 + exponent)
    used[p + 7] = _EXP2 + 2 * sci * (exponent + _EXP_SPAN + 1)
    used[p + 7].reshape(-1, k)[:, -1] += 1
    return table.take(used)


def _format_rows(columns: list[np.ndarray], integer: list[bool], table) -> bytes:
    """CSV text of equal-length columns: floats as repr(float), integers
    as str(int), "," between cells and "\\n" after each row.

    Every float cell goes through one numpy kernel: Schubfach digits,
    then a fixed-slot layout of 4-byte words from one table.  Integer
    cells, nan, inf and subnormal floats are rare: they are laid out as
    1.0 and then printed one by one, by str or repr, into their slots.
    """
    rows, k = len(columns[0]), len(columns)
    x = np.ones((rows, k))
    for j, col in enumerate(columns):
        if not integer[j]:
            x[:, j] = col
    *layout, rare = _float_fields(x.reshape(-1))
    del x
    rare.reshape(rows, k)[:, integer] = True
    out = _words(*layout, k, table)
    del layout
    for cell in np.flatnonzero(rare):
        i, j = divmod(int(cell), k)
        v = columns[j][i]
        text = str(int(v)) if integer[j] else repr(float(v))
        # The last word keeps the separator of the placeholder 1.0.
        out[:-1, cell] = np.frombuffer(text.encode().ljust(4 * len(out) - 4, b"\0"), _LE)
    return out.T.tobytes().translate(None, b"\0")


def write_table(path, names: list[str], columns: list[np.ndarray]) -> None:
    """CSV with a header row; floats use shortest round-trip repr.

    Integer columns are written as integers (str, cell by cell), every
    other column as float (repr, by one numpy kernel).  Rows are
    formatted _ROW_BLOCK at a time (see _format_rows), so memory does not
    grow with the row count and the bytes do not depend on the block
    size.
    """
    path = Path(path)
    arrays = [np.asarray(col) for col in columns]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("columns must have equal lengths")
    integer = [np.issubdtype(a.dtype, np.integer) for a in arrays]
    table = _word_table()
    with path.open("wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for start in range(0, n, _ROW_BLOCK):
            fh.write(_format_rows([a[start:start + _ROW_BLOCK] for a in arrays],
                                  integer, table))


def write_json(path, payload: dict) -> None:
    with Path(path).open("w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_text(path: Path, what: str) -> str:
    """UTF-8 text of an input file; ConfigError if it cannot be read."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {what} {path}: not UTF-8 text") from None
