"""Plot-ready CSV and JSON emission with byte-deterministic formatting,
and the one reader of text input files.  A CSV float cell is repr's text,
from one numpy kernel; an integer cell is str's, printed cell by cell.

The kernel finds each double's shortest digits with Schubfach (Giulietti
2020) at one exact 192-bit product per cell: the ends of its rounding
interval are that product plus or minus a shift of the same g, one carry
or borrow per word.  It then computes each 4-digit group in its row of a
(word, cell) uint32 output and looks each row up in one word table.

A run's tables are written in one pass (write_tables): tables with the
same row count are written in lockstep, one block of rows at a time, and
a column that is bit-identical to another in its group (same dtype, same
bytes) is formatted once and laid into every table that holds it."""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError


#: Distinct cells formatted per kernel call by write_tables: bounds its
#: working memory (about 135 bytes per cell at its peak, so about 415 KB)
#: and leaves the bytes unchanged.
_BLOCK_CELLS = 3072

#: Cell layout, in 4-byte words: sign, up to 4 groups of 4 integer
#: places, the point, 5 groups of 4 fraction places, and 2 words of
#: exponent and separator.  Unused bytes hold NUL and are dropped on
#: output; the first character of a word is its lowest byte.
_WORDS = 13
_LE = np.dtype("<u4")
#: The word table (_word_table): NUL, then each 4-digit group with its
#: leading zeros as NUL, in full, and with its trailing zeros as NUL
#: (but 0 as "0"), then the first word of "e%+03d" % e for each
#: exponent e, and the fifth character of each exponent (or none)
#: followed by ",".
_GROUP = 10_000
_FULL, _TRAIL = 1 + _GROUP, 1 + 2 * _GROUP
_EXP_SPAN = 330  # exponents of the "e" notation lie within +-_EXP_SPAN
_EXP1 = 1 + 3 * _GROUP + _EXP_SPAN  # + e
_EXP2 = _EXP1 + _EXP_SPAN + 1  # + (e + _EXP_SPAN + 1, or 0)
#: Turns the "," that ends a cell's last word into the "\n" that ends a row.
_NEWLINE = np.uint32((ord(",") ^ ord("\n")) << 24)

_U64, _U32 = np.uint64, np.uint32
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
    """(g, steps, (pairs, lead, trail), small): Schubfach's g table, the
    per-exponent steps of _shortest, the two digits of each number below
    100 as a word in full, without a leading zero and without a trailing
    zero, and the words after the groups in the word table; about 60 KB,
    built on first use so that importing the package does not pay for
    them.

    g is (617, 4) uint64: row e + 292 holds floor(10**e / 2**r) + 1 for
    e in [-292, 324], where r puts it in [2**127, 2**128), as its two
    64-bit words, least significant first, and then the high 32 bits of
    each.  Entry 2 * be - closer of steps is (e + 292, h + 2, h + 1 -
    closer) for a double of biased exponent be, where closer is set when
    its significand bits are 0 and be > 1 (its lower neighbour is
    closer); k = -e and h are Schubfach's.
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
    g = np.frombuffer(b"".join(x.to_bytes(16, "little") for x in gs), "<u8").reshape(-1, 2)
    g = np.concatenate([g, g >> _U64(32)], axis=1)
    # int32 and in place: a few 16 KB arrays at a time
    q = np.arange(1, 4097, dtype=np.int32) >> 1  # be of entry 2 * be - closer
    closer = np.arange(4096, dtype=np.int32) & (q > 1)
    closer &= 1
    q -= 1075
    k = q * 1262611
    k -= closer * 524031
    k >>= 22
    h = k * -1741647
    h >>= 19
    h += q
    h += 1
    steps = np.empty(4096, [("e", np.int16), ("cp", np.uint8), ("lower", np.uint8)])
    steps["e"] = 292 - k
    steps["cp"] = h + 2
    h += 1
    h -= closer
    steps["lower"] = h
    del q, closer, k, h
    pairs = ["%02d" % i for i in range(100)]
    # Pairs without a leading or a trailing zero; 0 keeps one "0".
    lead = ["\0" + "0"] + [p.lstrip("0").rjust(2, "\0") for p in pairs[1:]]
    trail = ["0"] + [p.rstrip("0") for p in pairs[1:]]
    pairs, lead, trail = (np.frombuffer("".join(w.ljust(4, "\0") for w in ws).encode(), _LE)
                          for ws in (pairs, lead, trail))
    # "e", the exponent's sign and digits, then ",".
    e = np.arange(-_EXP_SPAN, _EXP_SPAN + 1)
    a = np.abs(e)
    three = a >= 100
    digits = 48 + np.where(three, [a // 100, a // 10 % 10, a % 10],
                           [a // 10, a % 10, np.full_like(a, -48)])
    exp1 = (ord("e") | np.where(e < 0, ord("-"), ord("+")) << 8
            | digits[0] << 16 | digits[1] << 24)
    exp2 = np.concatenate([[0], digits[2]]) | ord(",") << 24
    small = np.concatenate([exp1, exp2]).astype(_LE)
    return g, steps, (pairs, lead, trail), small


def _word_table() -> np.ndarray:
    """The word table laid out at _GROUP.  Its 120 KB of group words are
    built from the pair words for each write_tables call and dropped
    after it, so no memory is kept between writes."""
    *_, (pairs, lead, trail), small = _tables()
    words = np.empty((3, 100, 100), _LE)  # [form, first pair, second pair]
    np.bitwise_or(lead[:, None], pairs << np.uint32(16), out=words[0])
    words[0, 0] = lead << np.uint32(16)
    np.bitwise_or(pairs[:, None], pairs << np.uint32(16), out=words[1])
    np.bitwise_or(pairs[:, None], trail << np.uint32(16), out=words[2])
    words[2, :, 0] = trail
    return np.concatenate([np.zeros(1, _LE), words.ravel(), small])


def _product(g, cp):
    """X = g * cp as its three 64-bit words, least significant first.
    g is (n, 4) as in _tables; cp is below 2**59 and is overwritten.
    The high word of each 64 x 64-bit product is summed from 32 x 32-bit
    limb products."""
    w0, w1, w0_hi, w1_hi = g.T
    b1 = cp >> _U64(32)
    x0 = w0 * cp
    x1 = w1 * cp
    b0 = cp
    b0 &= _M32

    def high(w, a1):  # floor(w * cp / 2**64), w = a1 * 2**32 + a0
        a0 = w & _M32
        mid = a1 * b0
        t = a0 * b0
        t >>= _U64(32)
        mid += t
        np.multiply(a0, b1, out=t)
        t += mid & _M32
        t >>= _U64(32)
        mid >>= _U64(32)
        t += mid
        np.multiply(a1, b1, out=mid)
        t += mid
        return t

    carry = high(w0, w0_hi)
    x1 += carry
    x2 = high(w1, w1_hi)
    x2 += x1 < carry
    return x0, x1, x2


def _rop(x1, x2):
    """Schubfach's rop() of a product with words (x0, x1, x2): x2 =
    floor(X / 2**128), its lowest bit set when x1, the 64 bits below it,
    exceeds 1."""
    return x2 | (x1 > _U64(1))


def _shifted(lo, hi, s):
    """g << s as three 64-bit words, least significant first, of g's
    words lo and hi; s lies in [1, 63] and is overwritten."""
    d0 = lo << s
    d1 = hi << s
    np.subtract(_U64(64), s, out=s)
    d1 |= lo >> s
    return d0, d1, hi >> s


def _rop_minus(x, d):
    """rop() of X - D, D <= X, from their words x and d, a borrow out of
    each word; d is overwritten.  d's middle word is never all ones, so
    adding a borrow to it does not wrap."""
    x0, x1, x2 = x
    d0, d1, d2 = d
    d1 += x0 < d0
    y1 = x1 - d1
    np.subtract(x2, d2, out=d2)
    d2 -= x1 < d1
    return _rop(y1, d2)


def _rop_plus(x, d):
    """rop() of X + D, below 2**192, from their words x and d, a carry
    out of each word; d is overwritten.  d's middle word is never all
    ones, so adding a carry to it does not wrap."""
    x0, x1, x2 = x
    d0, d1, d2 = d
    d0 += x0
    d1 += d0 < x0
    y1 = x1 + d1
    d2 += x2
    d2 += y1 < d1
    return _rop(y1, d2)


def _shortest(bits):
    """Shortest round-trip decimal (s, k), value = s * 10**k, of positive
    normal doubles given as their bits (Giulietti's Schubfach); s may
    end in zeros.

    The value's scaled product X = g * (4c << h) is the one 192-bit
    product per cell.  The interval ends are X - (g << (h + 1 - closer))
    and X + (g << (h + 1)): exact shifts of g, so each end is X's words
    plus one carry or borrow per word.  h lies in [1, 4], so every shift
    of a 64-bit word of g lies in [1, 63].
    """
    g_table, steps = _tables()[:2]
    # 2 * be - closer: bits - 1 lies one exponent lower where the
    # significand bits are 0
    key = bits - _U64(1)
    key >>= _U64(52)
    key += bits >> _U64(52)
    steps = steps.take(key)
    del key
    g = g_table.take(steps["e"], axis=0)
    cp = bits & _U64((1 << 52) - 1)
    cp |= _U64(1 << 52)
    cp <<= steps["cp"].astype(_U64)
    x = _product(g, cp)
    del cp
    lo, hi = g[:, 0], g[:, 1]
    lower = _rop_minus(x, _shifted(lo, hi, steps["lower"].astype(_U64)))
    shift = steps["cp"].astype(_U64)
    shift -= _U64(1)
    upper = _rop_plus(x, _shifted(lo, hi, shift))
    del g, lo, hi, shift
    vb = _rop(x[1], x[2])
    del x
    odd = bits & _U64(1)
    lower += odd
    upper -= odd
    del odd
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
    near = (vb & _U64(3)) + (s & _U64(1)) > _U64(2)
    u_in ^= w_in
    up = (u_in & w_in) | (near & ~u_in)
    s = np.where(short, sp + wp_in, s + up)
    return s.view(np.int64), (np.int64(292) - steps["e"]) + short


def _float_fields(x):
    """Layout fields of float64 cells, as repr(float) prints them; x is
    overwritten.

    Returns (neg, s, t, sci, exponent, rare): the cell prints s * 10**-t,
    with "e" + exponent and no ".0" where sci; rare marks the cells the
    kernel does not print (nan, inf, subnormal).  s may end in zeros:
    the layout drops them after the point.
    """
    bits = x.view(_U64)
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
    # Schubfach's s has 15-17 digits; 0 counts as 15, which lays it out
    # as any count would.
    n = 15 + (s >= _P10[15]) + (s >= _P10[16])
    point = n + k  # digits before the point, as in repr's decpt
    sci = (point < -3) | (point > 16)
    return neg, s, np.where(sci, n - 1, -k), sci, point - 1, rare


def _groups(value, rows):
    """Lay out value, int64 below 10**(4 * len(rows)), as 4-digit groups
    in the uint32 rows, most significant first."""
    for j in range(len(rows) - 1, 0, -1):
        high = value // _GROUP
        np.subtract(value, high * _GROUP, out=rows[j], casting="unsafe")
        value = high
    rows[0] = value


def _words(neg, s, t, sci, exponent, table):
    """(word, cell) text of cells, NUL-padded, each ending in ",".

    s * 10**-t is split at the point into 4-digit groups, up to 4 before
    it and 5 after.  Groups before the first nonzero one print as NUL,
    the first in its leading-NUL form; after the point, groups past the
    last nonzero one print as NUL and the last in its trailing-NUL form,
    with a "0" kept unless sci.  Only as many integer groups as the
    largest cell needs are laid out, with the sign just before them.
    Each group is computed in its output row, which one lookup in table
    then turns into its word.  Arrays are (word, cell), so each
    operation runs along the cells.
    """
    col = t + 15
    whole, frac = np.divmod(s, _SCALE[0].take(col))
    whole *= _SCALE[1].take(col)
    first = 3 - int(np.searchsorted(_P10[4:16:4], whole.max(), side="right"))
    p = 5 - first  # the point's word; the sign is word 0
    out = np.empty((_WORDS - first, len(s)), _LE)
    frac, rest = np.divmod(frac, _SCALE[2].take(col))
    np.multiply(rest, _SCALE[3].take(col), out=out[p + 5], casting="unsafe")  # digits 17-20
    del rest
    frac *= _SCALE[4].take(col)  # fraction digits 1-16
    del col
    _groups(whole, out[1:p])
    _groups(frac, out[p + 1:p + 5])
    del whole, frac

    # seen: a nonzero group at or before it (integer part) or at or
    # after it (fraction).  A group that is not seen is 0, so adding
    # seen selects NUL, leading-NUL, full or trailing-NUL words.
    seen = out != 0
    seen[p - 1] = True
    seen[p + 1] |= ~sci
    for j in range(2, p):
        seen[j] |= seen[j - 1]
    for j in range(p + 4, p, -1):
        seen[j] |= seen[j + 1]
    out[1:p] += seen[1:p]
    out[2:p] += seen[1:p - 1] * _U32(_GROUP)
    out[p + 1:p + 6] += seen[p + 1:p + 6] * _U32(_TRAIL)
    out[p + 1:p + 5] -= seen[p + 2:p + 6] * _U32(_TRAIL - _FULL)
    end = p + 6  # words looked up: the groups, and the exponent's if any
    if sci.any():
        np.multiply(sci, exponent + _EXP1, out=out[p + 6], casting="unsafe")
        np.multiply(sci, exponent + (_EXP_SPAN + 1), out=out[p + 7], casting="unsafe")
        out[p + 7] += _U32(_EXP2)
        end += 2
    else:
        out[p + 6:] = table.take([[0], [_EXP2]])
    for j in (*range(1, p), *range(p + 1, end)):
        # every index is in range; "clip" skips the copy "raise" makes of out
        table.take(out[j], out=out[j], mode="clip")
    np.multiply(neg, _U32(ord("-")), out=out[0])
    np.multiply(seen[p + 1], _U32(ord(".")), out=out[p])
    return out


def _cell_words(columns: list[np.ndarray], integer: list[bool], table) -> np.ndarray:
    """(word, row, column) text of the cells of equal-length columns,
    NUL-padded, each ending in ",": floats as repr(float), integers as
    str(int).

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
    out = _words(*layout, table)
    del layout
    for cell in np.flatnonzero(rare):
        i, j = divmod(int(cell), k)
        v = columns[j][i]
        text = str(int(v)) if integer[j] else repr(float(v))
        # The last word keeps the "," of the placeholder 1.0.
        out[:-1, cell] = np.frombuffer(text.encode().ljust(4 * len(out) - 4, b"\0"), _LE)
    return out.reshape(-1, rows, k)


def _rows(cells: np.ndarray, picks: list[int]) -> bytes:
    """CSV rows of the columns picks of cells (see _cell_words): ","
    between cells, "\\n" after each row."""
    text = cells[:, :, picks]
    text[-1, :, -1] ^= _NEWLINE
    return text.transpose(1, 2, 0).tobytes().translate(None, b"\0")


def _pick(distinct: list[np.ndarray], column: np.ndarray) -> int:
    """Index of the column of distinct that is bit-identical to column
    (same dtype, same bytes), appending column if none is; compared
    _BLOCK_CELLS at a time."""
    for j, other in enumerate(distinct):
        if other is column or (other.dtype == column.dtype and all(
                other[i:i + _BLOCK_CELLS].tobytes() == column[i:i + _BLOCK_CELLS].tobytes()
                for i in range(0, len(column), _BLOCK_CELLS))):
            return j
    distinct.append(column)
    return len(distinct) - 1


def write_tables(tables: dict) -> None:
    """Write each {path: (names, columns)} table as CSV with a header
    row, in one pass.  Integer columns are written as integers (str,
    cell by cell), every other column as float (the shortest round-trip
    repr, by one numpy kernel).

    Every table is checked before any file is opened.  Tables with the
    same row count are written in lockstep, one block of rows at a time.
    A column that is bit-identical to another of its group (same dtype,
    same bytes) is formatted once: each block's distinct cells, at most
    _BLOCK_CELLS of them, go through the kernel (_cell_words) once, and
    each table's rows are put together from those words.  So memory does
    not grow with the row count, and the bytes depend neither on the
    block size nor on which tables are written together.
    """
    groups: dict[int, list] = {}
    for path, (names, columns) in tables.items():
        arrays = [np.asarray(col) for col in columns]
        n = len(arrays[0])
        if any(len(a) != n for a in arrays):
            raise ValueError("columns must have equal lengths")
        groups.setdefault(n, []).append((Path(path), names, arrays))
    if not groups:
        return  # a run with no tables (budget) builds no word table
    table = _word_table()
    for n, group in groups.items():
        distinct: list[np.ndarray] = []
        picks = [[_pick(distinct, a) for a in arrays] for _, _, arrays in group]
        integer = [np.issubdtype(a.dtype, np.integer) for a in distinct]
        step = max(1, _BLOCK_CELLS // len(distinct))
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(path.open("wb")) for path, _, _ in group]
            for fh, (_, names, _) in zip(files, group):
                fh.write((",".join(names) + "\n").encode())
            for start in range(0, n, step):
                cells = _cell_words([a[start:start + step] for a in distinct], integer, table)
                for fh, pick in zip(files, picks):
                    fh.write(_rows(cells, pick))
                del cells  # before the next block is formatted


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
