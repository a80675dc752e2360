"""Plot-ready CSV and JSON emission with byte-deterministic formatting,
and the one reader of text input files.  A CSV float cell is repr's text,
from one numpy kernel; an integer cell is str's, printed cell by cell.

The kernel finds each double's shortest digits with Schubfach (Giulietti
2020) at one exact 192-bit product per cell: the ends of its rounding
interval are that product plus or minus a shift of the same g, one carry
or borrow per word.  It then computes each 4-digit group in its row of a
(word, cell) uint32 output and looks each row up in one word table.  A
block of up to 5,120 cells (_BLOCK_CELLS) works in one _Workspace, at
about 95 bytes per cell at its peak: each stage's scratch lies in memory
that the next stage reuses, the 64-bit rows of the product in the word
rows that the layout fills afterwards.

A run's tables are written in one pass (write_tables).  A table column
is an array or a Producer, which makes its cells one write block at a
time; an array is the producer that slices itself.  Every reader of a
column (this writer, the gyro stream and analysis's leafwise sums)
makes its blocks through _producer, the one place that holds a block to
the length asked for.  Tables with the same row count are written in
lockstep, one block of rows at a time, and a column object (an array or
a Producer) that several tables of the group hold is formatted once and
laid into every table that holds it.  The kernel's workspace and the
row text buffer are allocated once per call, and the text's NULs are
dropped in chunks below malloc's mmap threshold, so a write faults its
pages in once, not once per block.  The word table and the digit tables
are built once, on the first write, and kept."""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError


#: Distinct cells formatted per kernel call by write_tables: bounds its
#: working memory (about 95 bytes per cell at its peak, its _Workspace
#: included, so about 475 KiB) and leaves the bytes unchanged.
_BLOCK_CELLS = 5120

#: Words of CSV text made into one bytes object (64 KiB) before its NULs
#: are dropped: the writer's per-block allocations then stay below
#: malloc's 128 KiB mmap threshold and its top pad, so they reuse their
#: pages from block to block.
_CHUNK_WORDS = 16384

#: Cell layout, in 4-byte words: sign, up to 4 groups of 4 integer
#: places, the point, 5 groups of 4 fraction places, and 2 words of
#: exponent and separator.  Unused bytes hold NUL and are dropped on
#: output; the first character of a word is its lowest byte.
_WORDS = 13
_LE = np.dtype("<u4")
#: The word table (_tables): NUL, then each 4-digit group with its
#: leading zeros as NUL, in full, and with its trailing zeros as NUL
#: (but 0 as "0"), then the first word of "e%+03d" % e for each
#: exponent e, and the fifth character of each exponent (or none)
#: followed by ",".
_GROUP = 10_000
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
    """(g, steps, table): Schubfach's g table, the per-exponent steps of
    _shortest and the word table laid out at _GROUP; about 150 KB, built
    on first use so that importing the package does not pay for them.

    g is (617, 2) uint64: row e + 292 holds floor(10**e / 2**r) + 1 for
    e in [-292, 324], where r puts it in [2**127, 2**128), as its two
    64-bit words, least significant first.  Entry 2 * be - closer of
    steps is (e + 292, h + 2, h + 1 - closer) for a double of biased
    exponent be, where closer is set when its significand bits are 0 and
    be > 1 (its lower neighbour is closer); k = -e and h are Schubfach's.
    The group words join the two digits of each number below 100 as a
    word in full, without a leading zero and without a trailing zero.
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
    g = g.T.copy().T  # each word contiguous, for the kernel's lookups
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
    words = np.empty((3, 100, 100), _LE)  # [form, first pair, second pair]
    np.bitwise_or(lead[:, None], pairs << np.uint32(16), out=words[0])
    words[0, 0] = lead << np.uint32(16)
    np.bitwise_or(pairs[:, None], pairs << np.uint32(16), out=words[1])
    np.bitwise_or(pairs[:, None], trail << np.uint32(16), out=words[2])
    words[2, :, 0] = trail
    return g, steps, np.concatenate([np.zeros(1, _LE), words.ravel(), small])


class _Workspace:
    """The kernel's buffers for blocks of up to cells cells, allocated once
    per write_tables call: the (word, cell) output and three 64-bit rows.

    Each stage works in memory the next one reuses.  _shortest takes its
    64-bit rows from the first 12 word rows (six 64-bit rows, low) before
    _words lays any cell out, and from wide; _words keeps each cell's
    column index in word rows 11 and 12 (tail) until the exponent's words
    go there, and its group sums in wide (wide32)."""

    def __init__(self, cells: int):
        cells += -cells % 2  # two word rows make one aligned 64-bit row
        self.words = np.empty((_WORDS, cells), _LE)
        flat = self.words.reshape(-1)
        self.low = flat[:12 * cells].view(_U64).reshape(6, cells)
        self.tail = flat[11 * cells:].view(np.int64)
        self.wide = np.empty((3, cells), _U64)
        self.wide32 = self.wide.reshape(-1).view(_LE).reshape(6, cells)


def _product(g, cp, rows):
    """X = g * cp as its three 64-bit words, least significant first.
    g is (n, 2) as in _tables; cp is below 2**59 and is overwritten.  The
    words go in rows[:3] and rows[3:6] are scratch: six uint64 rows of n.
    The high word of each 64 x 64-bit product is summed from 32 x 32-bit
    limb products."""
    lo, hi = g.T
    x0, x1, x2, b1, t, u = rows
    np.right_shift(cp, _U64(32), out=b1)
    np.multiply(lo, cp, out=x0)
    np.multiply(hi, cp, out=x1)
    b0 = cp
    b0 &= _M32

    def high(w, out, t, u):  # floor(w * cp / 2**64) in out, w = a1 * 2**32 + a0
        np.bitwise_and(w, _M32, out=t)
        np.multiply(t, b0, out=u)
        u >>= _U64(32)
        t *= b1  # a0 * b1
        np.right_shift(w, _U64(32), out=out)
        out *= b0
        out += u  # a1 * b0 + (a0 * b0 >> 32), below 2**64
        np.bitwise_and(out, _M32, out=u)
        u += t
        u >>= _U64(32)
        out >>= _U64(32)
        out += u
        np.right_shift(w, _U64(32), out=t)
        t *= b1
        out += t
        return out

    carry = high(lo, x2, t, u)
    x1 += carry
    carry = x1 < carry
    high(hi, x2, t, u)
    x2 += carry
    return x0, x1, x2


def _rop(x1, x2, out):
    """Schubfach's rop() of a product with words (x0, x1, x2): x2 =
    floor(X / 2**128), its lowest bit set when x1, the 64 bits below it,
    exceeds 1."""
    return np.bitwise_or(x2, x1 > _U64(1), out=out)


def _shifted(lo, hi, s, d):
    """g << s as three 64-bit words, least significant first, of g's
    words lo and hi, in the three uint64 rows d; s lies in [1, 63]."""
    d0, d1, d2 = d
    np.left_shift(lo, s, out=d0)
    np.left_shift(hi, s, out=d1)
    s = np.subtract(64, s, dtype=s.dtype)
    np.right_shift(lo, s, out=d2)
    d1 |= d2
    np.right_shift(hi, s, out=d2)
    return d0, d1, d2


def _rop_minus(x, d):
    """rop() of X - D, D <= X, from their words x and d, a borrow out of
    each word, in d's last word; d is overwritten.  d's middle word is
    never all ones, so adding a borrow to it does not wrap."""
    x0, x1, x2 = x
    d0, d1, d2 = d
    d1 += x0 < d0
    borrow = x1 < d1
    np.subtract(x1, d1, out=d1)
    np.subtract(x2, d2, out=d2)
    d2 -= borrow
    return _rop(d1, d2, out=d2)


def _rop_plus(x, d):
    """rop() of X + D, below 2**192, from their words x and d, a carry
    out of each word, in d's last word; d is overwritten.  d's middle
    word is never all ones, so adding a carry to it does not wrap."""
    x0, x1, x2 = x
    d0, d1, d2 = d
    d0 += x0
    d1 += d0 < x0
    np.add(x1, d1, out=d0)
    d2 += x2
    d2 += d0 < d1
    return _rop(d0, d2, out=d2)


def _shortest(bits, work):
    """Shortest round-trip decimal (s, k), value = s * 10**k, of positive
    normal doubles given as their bits (Giulietti's Schubfach); s may
    end in zeros.  The rows of work, a _Workspace of at least len(bits)
    cells, are the scratch, bits among them if it is wide[0]; s is a
    view of wide[1].

    The value's scaled product X = g * (4c << h) is the one 192-bit
    product per cell.  The interval ends are X - (g << (h + 1 - closer))
    and X + (g << (h + 1)): exact shifts of g, so each end is X's words
    plus one carry or borrow per word.  h lies in [1, 4], so every shift
    of a 64-bit word of g lies in [1, 63].
    """
    g_table, steps = _tables()[:2]
    n = len(bits)
    # r[0] and r[1] are wide[1:], r[2:] are low; g is r[3:5] and X r[5:]
    r = [row[:n] for row in (*work.wide[1:], *work.low)]
    # 2 * be - closer: bits - 1 lies one exponent lower where the
    # significand bits are 0
    index = r[2].view(np.int64)
    np.subtract(bits, _U64(1), out=r[2])
    r[2] >>= _U64(52)
    np.right_shift(bits, _U64(52), out=r[3])
    r[2] += r[3]
    steps = steps.take(index, mode="clip")
    index[:] = steps["e"]
    lo, hi = r[3], r[4]
    g_table.T[0].take(index, out=lo, mode="clip")
    g_table.T[1].take(index, out=hi, mode="clip")
    odd = np.bitwise_and(bits, _U64(1), out=r[2]) != 0
    cp = work.wide[0, :n]
    np.bitwise_and(bits, _U64((1 << 52) - 1), out=cp)
    cp |= _U64(1 << 52)
    cp <<= steps["cp"]
    x = _product(work.low[1:3, :n].T, cp, (*r[5:8], *r[:3]))
    lower = _rop_minus(x, _shifted(lo, hi, steps["lower"], r[:3]))
    upper = _rop_plus(x, _shifted(lo, hi, steps["cp"] - np.uint8(1), (r[0], r[1], cp)))
    k = np.subtract(292, steps["e"], dtype=np.int16)
    del steps
    vb = _rop(x[1], x[2], out=x[2])
    del x
    lower += odd
    upper -= odd
    del odd
    # One digit fewer if exactly one of its two candidates lies in the
    # interval; else the one of s and s + 1 in it; else the nearer one,
    # ties to even.  s >= 10 holds for every normal double.
    s, sp, w = r[0], r[3], r[4]
    np.floor_divide(vb, _U64(40), out=sp)
    np.multiply(sp, _U64(40), out=w)
    short = lower <= w
    w += _U64(40)
    inside = w <= upper
    short ^= inside  # exactly one of sp * 40 and sp * 40 + 40 inside
    sp += inside
    np.bitwise_and(vb, ~_U64(3), out=w)
    u_in = np.less_equal(lower, w, out=inside)
    np.bitwise_or(vb, _U64(3), out=w)
    w += _U64(1)
    w_in = w <= upper
    np.bitwise_and(vb, _U64(3), out=w)
    np.right_shift(vb, _U64(2), out=s)
    np.bitwise_and(s, _U64(1), out=vb)
    w += vb
    near = w > _U64(2)
    u_in ^= w_in
    w_in &= u_in
    near &= ~u_in
    w_in |= near  # s + 1 rather than s
    s += w_in
    # s = sp where short
    sp -= s
    sp *= short
    s += sp
    k += short
    return s.view(np.int64), k


def _float_fields(x, work):
    """Layout fields of float64 cells, as repr(float) prints them; x is
    overwritten, and work's rows are the scratch.

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
    s, k = _shortest(bits, work)
    s[zero] = 0
    k[zero] = 0
    # Schubfach's s has 15-17 digits; 0 counts as 15, which lays it out
    # as any count would.
    n = np.add(s >= _P10[15], s >= _P10[16], dtype=np.int8)
    n += 15
    point = n + k  # digits before the point, as in repr's decpt
    sci = (point < -3) | (point > 16)
    point -= 1
    return neg, s, np.where(sci, n - 1, -k), sci, point, rare


def _groups(value, rows):
    """Lay out value, int64 below 10**(4 * len(rows)), as 4-digit groups
    in the uint32 rows, most significant first; value is overwritten.
    Each group is value - (value // _GROUP) * _GROUP modulo 2**32, formed
    with the next row up as scratch."""
    for j in range(len(rows) - 1, 0, -1):
        np.copyto(rows[j], value, casting="unsafe")
        value //= _GROUP
        np.multiply(value, _GROUP, out=rows[j - 1], casting="unsafe")
        rows[j] -= rows[j - 1]
    np.copyto(rows[0], value, casting="unsafe")


def _words(neg, s, t, sci, exponent, work):
    """(word, cell) text of cells, NUL-padded, each ending in ",", as a
    view of work.words; s is overwritten.

    s * 10**-t is split at the point into 4-digit groups, up to 4 before
    it and 5 after.  Groups before the first nonzero one print as NUL,
    the first in its leading-NUL form; after the point, groups past the
    last nonzero one print as NUL and the last in its trailing-NUL form,
    with a "0" kept unless sci.  Only as many integer groups as the
    largest cell needs are laid out, with the sign just before them.
    Each group is computed in its output row, which one lookup in the
    word table then turns into its word.  Arrays are (word, cell), so
    each operation runs along the cells.

    Word rows are fixed: the sign goes in row first (0-4), the integer
    groups in rows first + 1 to 4, the point in row 5, the fraction's
    groups in rows 6-10 and the exponent's words in rows 11 and 12.
    """
    n = len(s)
    table = _tables()[2]
    out = work.words[:, :n]
    col = work.tail[:n]  # t + 15, until the exponent's words replace it
    np.add(t, 15, out=col)
    scale = work.wide[0, :n].view(np.int64)
    frac = work.wide[2, :n].view(np.int64)
    np.take(_SCALE[0], col, out=scale, mode="clip")
    np.divmod(s, scale, out=(s, frac))
    np.take(_SCALE[1], col, out=scale, mode="clip")
    s *= scale  # the integer part
    first = 3 - int(np.searchsorted(_P10[4:16:4], s.max(), side="right"))
    if t.max() > 16:  # fraction digits 17-20, scaled in word rows 0 and 1
        rest = work.low[0, :n].view(np.int64)
        np.take(_SCALE[2], col, out=scale, mode="clip")
        np.divmod(frac, scale, out=(frac, rest))
        np.take(_SCALE[3], col, out=scale, mode="clip")
        rest *= scale
        np.copyto(out[10], rest, casting="unsafe")
    else:
        out[10] = 0
    np.take(_SCALE[4], col, out=scale, mode="clip")
    frac *= scale  # fraction digits 1-16
    _groups(s, out[first + 1:5])
    _groups(frac, out[6:10])

    # seen: a nonzero group at or before it (integer part) or at or
    # after it (fraction), as 0 or 1 in rows of wide.  A group that is
    # not seen is 0, so adding seen selects NUL, leading-NUL, full or
    # trailing-NUL words (the three forms start at 1, 1 + _GROUP and
    # 1 + 2 * _GROUP): the integer part's index is group + seen +
    # _GROUP * (seen of the group before), the fraction's is group +
    # seen + _GROUP * (2 * seen - seen of the group after).
    seen = work.wide32[:4 - first, :n]
    np.minimum(out[first + 1:5], _U32(1), out=seen)
    seen[-1] = 1
    for j in range(1, len(seen) - 1):
        seen[j] |= seen[j - 1]
    out[first + 1:5] += seen
    seen *= _U32(_GROUP)
    out[first + 2:5] += seen[:-1]
    seen = work.wide32[:5, :n]
    np.minimum(out[6:11], _U32(1), out=seen)
    seen[0] |= ~sci
    for j in range(3, -1, -1):
        seen[j] |= seen[j + 1]
    np.multiply(seen[0], _U32(ord(".")), out=out[5])
    out[6:11] += seen
    seen *= _U32(_GROUP)
    out[6:11] += seen
    out[6:11] += seen
    out[6:10] -= seen[1:]
    end = 11  # rows looked up: the groups, and the exponent's if any
    if sci.any():
        np.multiply(sci, exponent + _EXP1, out=out[11], casting="unsafe")
        np.multiply(sci, exponent + (_EXP_SPAN + 1), out=out[12], casting="unsafe")
        out[12] += _U32(_EXP2)
        end = 13
    else:
        out[11:] = table.take([[0], [_EXP2]])
    index = work.wide[0, :n].view(np.int64)
    for j in (*range(first + 1, 5), *range(6, end)):
        index[:] = out[j]
        table.take(index, out=out[j], mode="clip")
    np.multiply(neg, _U32(ord("-")), out=out[first])
    return out[first:]


def _cell_words(columns: list[np.ndarray], integer: list[bool], work: _Workspace) -> np.ndarray:
    """(word, row, column) text of the cells of equal-length columns,
    NUL-padded, each ending in ",": floats as repr(float), integers as
    str(int); a view of work.words, valid until the next call.

    Every float cell goes through one numpy kernel: Schubfach digits,
    then a fixed-slot layout of 4-byte words from one table.  Integer
    cells, nan, inf and subnormal floats are rare: they are laid out as
    1.0 and then printed one by one, by str or repr, into their slots.
    """
    rows, k = len(columns[0]), len(columns)
    x = work.wide[0, :rows * k].view(np.float64)
    cells = x.reshape(rows, k)
    for j, col in enumerate(columns):
        cells[:, j] = 1.0 if integer[j] else col
    *layout, rare = _float_fields(x, work)
    rare.reshape(rows, k)[:, integer] = True
    out = _words(*layout, work)
    del layout
    for cell in np.flatnonzero(rare):
        i, j = divmod(int(cell), k)
        v = columns[j][i]
        text = str(int(v)) if integer[j] else repr(float(v))
        # The last word keeps the "," of the placeholder 1.0.
        out[:-1, cell] = np.frombuffer(text.encode().ljust(4 * len(out) - 4, b"\0"), _LE)
    return out.reshape(-1, rows, k)


def _write_rows(fh, cells: np.ndarray, picks: list[int], text: np.ndarray) -> None:
    """Write the CSV rows of the columns picks of cells (see _cell_words):
    "," between cells, "\\n" after each row.  They are laid out in the
    buffer text, which holds at least the words of the picked columns,
    and their NULs are dropped _CHUNK_WORDS words at a time."""
    words, rows, _ = cells.shape
    text = text[:rows * len(picks) * words].reshape(rows, len(picks), words)
    # one copy per run of consecutive columns
    for _, run in itertools.groupby(enumerate(picks), lambda jp: jp[1] - jp[0]):
        (j, pick), *more = run
        end = j + 1 + len(more)
        np.copyto(text[:, j:end], cells[:, :, pick:pick + end - j].transpose(1, 2, 0))
    text[:, -1, -1] ^= _NEWLINE
    step = max(1, _CHUNK_WORDS // (len(picks) * words))
    fh.write(b"".join(text[start:start + step].tobytes().translate(None, b"\0")
                      for start in range(0, rows, step)))


class Producer:
    """A column of n cells made one block at a time: make(start, stop)
    returns cells [start, stop) as an array of stop - start cells.  The
    cells must not depend on where the blocks start and stop.  Every
    reader makes its blocks through _producer, which holds each block to
    that length."""

    __slots__ = ("n", "make")

    def __init__(self, n: int, make):
        self.n, self.make = n, make

    def __len__(self) -> int:
        return self.n


def _pick(distinct: list, column) -> int:
    """Index of column itself in distinct, appending it if absent."""
    for j, other in enumerate(distinct):
        if other is column:
            return j
    distinct.append(column)
    return len(distinct) - 1


def _producer(column) -> Producer:
    """column as a Producer of checked blocks: an array is the producer
    of its own slices, and a block that does not hold stop - start cells
    is a ValueError."""
    make = column.make if isinstance(column, Producer) else (
        lambda start, stop: column[start:stop])

    def checked(start, stop):
        block = np.asarray(make(start, stop))
        if len(block) != stop - start:
            raise ValueError(f"a producer made {len(block)} cells for rows [{start}, {stop})")
        return block

    return Producer(len(column), checked)


def write_tables(tables: dict) -> None:
    """Write each {path: (names, columns)} table as CSV with a header
    row, in one pass.  A column is an array or a Producer, whose cells
    are made one block at a time (_producer checks each block's length).
    Integer cells are written as integers (str, cell by cell), every
    other cell as float (the shortest round-trip repr, by one numpy
    kernel).

    Every table's row counts are checked before any file is opened.
    Tables with the same row count are written in lockstep, one block of
    rows at a time.  A column is matched by identity: one array or
    Producer object that several tables of the group hold is formatted
    once, while equal arrays that are separate objects are formatted
    once each.  Each block's distinct cells, at most _BLOCK_CELLS of
    them, are made and go through the kernel (_cell_words) once, and
    each table's rows are put together from those words.  The kernel's
    _Workspace and the row text buffer are allocated once per call, so
    memory does not grow with the row count, and the bytes depend
    neither on the block size nor on which columns merge.
    """
    groups: dict[int, list] = {}
    for path, (names, columns) in tables.items():
        columns = [col if isinstance(col, Producer) else np.asarray(col) for col in columns]
        n = len(columns[0])
        if any(len(col) != n for col in columns):
            raise ValueError("columns must have equal lengths")
        groups.setdefault(n, []).append((Path(path), names, columns))
    if not groups:
        return  # a run with no tables (budget) builds no word table
    plans = []
    for n, group in groups.items():
        distinct: list = []
        picks = [[_pick(distinct, col) for col in columns] for _, _, columns in group]
        plans.append((n, group, [_producer(col) for col in distinct], picks,
                      max(1, _BLOCK_CELLS // len(distinct))))
    work = _Workspace(max(min(n, step) * len(distinct) for n, _, distinct, _, step in plans))
    text = np.empty(_WORDS * max(min(n, step) * max(map(len, picks))
                                 for n, _, _, picks, step in plans), _LE)
    for n, group, distinct, picks, step in plans:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(path.open("wb")) for path, _, _ in group]
            for fh, (_, names, _) in zip(files, group):
                fh.write((",".join(names) + "\n").encode())
            for start in range(0, n, step):
                stop = min(start + step, n)
                blocks = [col.make(start, stop) for col in distinct]
                integer = [block.dtype.kind in "iu" for block in blocks]
                cells = _cell_words(blocks, integer, work)
                for fh, pick in zip(files, picks):
                    _write_rows(fh, cells, pick, text)


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
