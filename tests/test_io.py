"""Byte identity of the CSV writer with repr(float) and str(int).

write_tables formats cells with a numpy kernel (Schubfach digits and a
fixed-slot layout); these tests hold it to CPython's own text for every
kind of double: random bit patterns, the irregular spacing at powers of
two, powers of ten, the switch points of the "e" notation, integral
values around 2**53, subnormals, signed zeros, nan and infinities, and
the extremes of int64 and uint64.  A run's tables go through the kernel
once per distinct column object of each row count: the shipped fringes
and gyro runs pin how many cells that is.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvgyro import FieldEnvironment, PhysicalConstants, SequenceConfig, io
from nvgyro.analysis import calibration_from_sweep, rate_spread, rotation_rms_error
from nvgyro.cli import main
from nvgyro.sequence import run_gyro_stream

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _written(tmp_path, columns) -> str:
    path = tmp_path / "t.csv"
    names = [f"c{j}" for j in range(len(columns))]
    io.write_tables({path: (names, columns)})
    text = path.read_text()
    header, _, body = text.partition("\n")
    assert header == ",".join(names)
    return body


def _expected(columns) -> str:
    cells = [[str(int(v)) for v in c] if c.dtype.kind in "iu"
             else [repr(float(v)) for v in c] for c in columns]
    return "".join(",".join(row) + "\n" for row in zip(*cells))


def _check_floats(tmp_path, values, k=4):
    """The values as k float columns (padded with 0.0), then as one."""
    x = np.asarray(values, dtype=float)
    padded = np.concatenate([x, np.zeros(-len(x) % k)]).reshape(-1, k)
    columns = [padded[:, j] for j in range(k)]
    assert _written(tmp_path, columns) == _expected(columns)
    assert _written(tmp_path, [x]) == _expected([x])


def _with_neighbours(values):
    out = []
    for v in values:
        out += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return [v for v in out if math.isfinite(v)]


def test_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(20181).integers(0, 2**64, size=200_000, dtype=np.uint64)
    _check_floats(tmp_path, bits.view(np.float64))


def test_powers_of_two_and_neighbours(tmp_path):
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    values = _with_neighbours(powers)
    _check_floats(tmp_path, values + [-v for v in values])


def test_powers_of_ten_and_neighbours(tmp_path):
    powers = [float(f"1e{e}") for e in range(-323, 309)]
    values = _with_neighbours(powers)
    _check_floats(tmp_path, values + [-v for v in values])


def test_notation_switch_points(tmp_path):
    values = [9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16,
              0.00010000000000000002, 1.0000000000000002e16, 1e15, 123456789012345.67]
    _check_floats(tmp_path, _with_neighbours(values) + [-v for v in values])


def test_integral_floats_zeros_subnormals_and_specials(tmp_path):
    near = [float(2**53 + d) for d in range(-64, 65)]
    small = [float(i) for i in range(-1000, 1001)] + [float(10**e) for e in range(23)]
    subnormal = [5e-324, 1e-323, 2.225073858507201e-308, -5e-324]
    subnormal += list(np.random.default_rng(7).integers(1, 2**52, 500, dtype=np.uint64)
                      .view(np.float64))
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
    _check_floats(tmp_path, near + [-v for v in near] + small + subnormal + special)


def test_integer_extremes(tmp_path):
    i64 = np.array([0, 1, -1, 9, 10, -10, 10**15, 10**16 - 1, 10**16, 10**16 + 1,
                    -(10**16) + 1, -(10**16), 2**53 + 1, 2**63 - 1, -(2**63)], np.int64)
    u64 = np.array([0, 1, 10**16 - 1, 10**16, 2**63, 2**64 - 1] + [7] * 9, np.uint64)
    small = np.arange(-3, 12, dtype=np.int8)
    columns = [i64, u64, small, np.linspace(-1, 1, len(i64))]
    assert _written(tmp_path, columns) == _expected(columns)


@pytest.mark.parametrize("rows", [3, 2500])
def test_shared_producer_is_made_once_per_block(tmp_path, rows):
    # The shape of gyro's tables: t_s, a Producer, is shared by two
    # tables written in lockstep and made once per block of rows, fewer
    # rows than one block or several blocks of them; the bytes are the
    # arrays'.
    t = np.arange(rows) * 7e-3
    signal = np.random.default_rng(9).normal(0.4, 1e-3, rows)
    calls = []

    def times(start, stop):
        calls.append((start, stop))
        return np.arange(start, stop) * 7e-3

    t_s = io.Producer(rows, times)
    io.write_tables({tmp_path / "signal.csv": (["t_s", "signal"], [t_s, signal]),
                     tmp_path / "rotation.csv": (["t_s", "x"], [t_s, signal * 360])})
    io.write_tables({tmp_path / "ref-signal.csv": (["t_s", "signal"], [t, signal]),
                     tmp_path / "ref-rotation.csv": (["t_s", "x"], [t, signal * 360])})
    for name in ("signal.csv", "rotation.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref-{name}").read_bytes()
    step = io._BLOCK_CELLS // 3  # t_s, signal and signal * 360
    assert calls == [(i, min(i + step, rows)) for i in range(0, rows, step)]


def test_columns_are_shared_by_identity(tmp_path, monkeypatch):
    # One array object in two tables is formatted once; an equal array
    # that is a separate object is formatted as a column of its own.  The
    # bytes are the same either way.
    seen = []
    cell_words = io._cell_words

    def counted(columns, integer, work):
        seen.append(len(columns))
        return cell_words(columns, integer, work)

    monkeypatch.setattr(io, "_cell_words", counted)
    t = np.linspace(0.0, 1e-3, 7)
    y = np.cos(t)
    written = {}
    for label, other in (("shared", t), ("equal", t.copy())):
        seen.clear()
        io.write_tables({tmp_path / f"{label}-a.csv": (["t", "y"], [t, y]),
                         tmp_path / f"{label}-b.csv": (["t", "y"], [other, y])})
        written[label] = [(tmp_path / f"{label}-{x}.csv").read_bytes() for x in "ab"]
        assert seen == [2 if other is t else 3]
    assert written["shared"] == written["equal"]
    assert written["shared"][0] == written["shared"][1]


def _making(n: int, cells: int) -> io.Producer:
    """A Producer of n cells whose every block holds cells cells."""
    return io.Producer(n, lambda start, stop: np.full(cells, 0.3))


_SIGNAL = np.linspace(0.1, 0.3, 20)

#: Every reader of a Producer makes its blocks through io._producer,
#: which holds each block to the rows asked for.
_READERS = {
    "write_tables": lambda tmp_path: io.write_tables(
        {tmp_path / "t.csv": (["a"], [_making(5, 2)])}),
    **{f"run_gyro_stream-{cells}": lambda tmp_path, cells=cells: run_gyro_stream(
        SequenceConfig(), FieldEnvironment(nu=_making(14, cells)), PhysicalConstants(), 0.1)
       for cells in (1, 2)},
    "calibration_from_sweep": lambda tmp_path: calibration_from_sweep(_making(20, 1), _SIGNAL),
    "rate_spread": lambda tmp_path: rate_spread(_making(20, 1)),
    "rotation_rms_error": lambda tmp_path: rotation_rms_error(_SIGNAL, 1.0, 0.0, _making(20, 1)),
}


def test_producer_of_the_wrong_length_is_rejected(tmp_path):
    with pytest.raises(ValueError, match=r"a producer made 2 cells for rows \[0, 5\)"):
        io.write_tables({tmp_path / "t.csv": (
            ["a"], [io.Producer(5, lambda start, stop: np.zeros(2))])})


@pytest.mark.parametrize("reader", _READERS)
def test_every_reader_rejects_a_producer_of_the_wrong_length(tmp_path, reader):
    with pytest.raises(ValueError, match=r"a producer made .+ cells for rows \[0, \d+\)"):
        _READERS[reader](tmp_path)


def test_unequal_columns_are_rejected(tmp_path):
    path = tmp_path / "t.csv"
    for columns in ([np.zeros(3), np.zeros(2)],
                    [np.zeros(3), io.Producer(2, lambda start, stop: np.zeros(stop - start))]):
        with pytest.raises(ValueError, match="equal lengths"):
            io.write_tables({path: (["a", "b"], columns)})
        assert not path.exists()


def test_tables_are_not_built_on_import():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import nvgyro.cli, nvgyro.io as io; "
            "print(io._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    assert out.stdout.strip() == "0"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_prints_as_repr(tmp_path_factory, patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    _check_floats(tmp_path_factory.mktemp("io"), values)


def _g_rows(gs):
    """Rows of io._tables()[0]'s layout for 128-bit integers gs."""
    return np.array([(g & 2**64 - 1, g >> 64) for g in gs], np.uint64)


def test_round_to_odd_sticky_threshold():
    # Schubfach's exact cases: for 0 <= e <= 22 the g table holds
    # G + 1 with G = 10**e * 2**(128 - n) exact, so the scaled value
    # g * cp / 2**128 of cp = m * 2**(n - e) is the integer m * 5**e plus
    # (g - G) * cp / 2**128: the g error alone decides the 64 bits below
    # the result.  Raising that error by delta puts those bits at w, and
    # the lowest bit is set only for w > 1.
    g_table = io._tables()[0]
    gs, cps, expected = [], [], []
    for e in range(23):
        n = (10**e).bit_length()
        big_g = 10**e << (128 - n)
        assert g_table[292 + e].tolist() == _g_rows([big_g + 1])[0].tolist()
        for m in (2, 6, 10):
            cp = m << (n - e)
            for w in (0, 1, 2, 3):
                delta = -(-w * 2**64 // cp) if w else 1
                assert (delta * cp) >> 64 == w
                gs.append(big_g + delta)
                cps.append(cp)
                expected.append(m * 5**e + (w > 1))
    _, x1, x2 = io._product(_g_rows(gs), np.array(cps, np.uint64),
                            np.empty((6, len(cps)), np.uint64))
    assert io._rop(x1, x2, np.empty_like(x2)).tolist() == expected


def test_shifted_g_words_are_never_all_ones():
    # _rop_minus and _rop_plus add a borrow or carry into the middle
    # 64-bit word of g << s, s in [1, 5], without looking for a wrap
    for lo, hi, *_ in io._tables()[0].tolist():
        g = hi << 64 | lo
        assert all((g << s) >> 64 & 2**64 - 1 != 2**64 - 1 for s in range(1, 6))


def test_interval_ends_carry_and_borrow_between_words():
    # X - (g << s) and X + (g << s) with the 64 bits below the result at
    # 0-3 and at 2**64 - 1, with and without a borrow or carry out of the
    # low word: each end's rop() is the one exact integers give.
    rng = np.random.default_rng(22)
    g_table = io._tables()[0]
    rows = g_table[rng.integers(0, len(g_table), 40)]
    cases = []
    for row in rows.tolist():
        g = row[1] << 64 | row[0]
        for s in range(1, 6):
            for y1 in (0, 1, 2, 3, 2**64 - 1):
                for y0 in (0, 2**64 - 1, int(rng.integers(0, 2**63))):
                    y = int(rng.integers(64, 2**55)) << 128 | y1 << 64 | y0
                    cases.append((row, s, y, g << s))
    want = [y >> 128 | ((y >> 64 & 2**64 - 1) > 1) for _, _, y, _ in cases]
    g = np.array([row for row, *_ in cases], np.uint64)
    shifts = np.array([s for _, s, _, _ in cases], np.uint64)

    def words(values):
        return tuple(np.array([v >> (64 * i) & 2**64 - 1 for v in values], np.uint64)
                     for i in range(3))

    for rop, x in ((io._rop_minus, [y + d for _, _, y, d in cases]),
                   (io._rop_plus, [y - d for _, _, y, d in cases])):
        d = io._shifted(g[:, 0], g[:, 1], shifts.copy(), np.empty((3, len(g)), np.uint64))
        assert [v.tolist() for v in d] == [w.tolist() for w in words([c[3] for c in cases])]
        assert rop(words(x), d).tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 2046), min_size=1, max_size=32), st.data())
def test_schubfach_shifts_and_digit_counts(exponents, data):
    # Every normal double's h lies in [1, 4], so _shortest shifts each
    # 64-bit word of g by 1 to 63 places, and its s has 15-17 digits,
    # which _float_fields counts with two comparisons.
    fractions = data.draw(st.lists(st.sampled_from([0, 1, 2**52 - 1]) | st.integers(0, 2**52 - 1),
                                   min_size=len(exponents), max_size=len(exponents)))
    bits = np.array([be << 52 | f for be, f in zip(exponents, fractions)], np.uint64)
    key = ((bits - np.uint64(1)) >> np.uint64(52)) + (bits >> np.uint64(52))
    steps = io._tables()[1].take(key)
    h = steps["cp"] - 2
    assert ((1 <= h) & (h <= 4)).all()
    assert (steps["lower"] >= 1).all()
    s, k = io._shortest(bits, io._Workspace(len(bits)))
    assert ((10**14 <= s) & (s < 10**17)).all()
    values = bits.view(np.float64)
    assert [float(f"{a}e{b}") for a, b in zip(s.tolist(), k.tolist())] == values.tolist()


@pytest.mark.parametrize("argv, cells", [
    # five tables share tau_s (5,000 rows) and five share freq_hz
    # (10,001 rows): 95,006 of the 155,010 cells written
    (["fringes", "--config", str(CONFIGS / "default.cfg")], 95_006),
    # signal.csv and rotation.csv share t_s (71,428 rows): 423,808 of
    # the 495,236 cells written
    (["gyro", "--config", str(CONFIGS / "default.cfg"),
      "--profile", str(CONFIGS / "triangle_profile.csv")], 423_808),
])
def test_kernel_formats_each_distinct_column_once(tmp_path, monkeypatch, argv, cells):
    seen = []
    cell_words = io._cell_words

    def counted(columns, integer, table):
        seen.append(len(columns) * len(columns[0]))
        return cell_words(columns, integer, table)

    monkeypatch.setattr(io, "_cell_words", counted)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert sum(seen) == cells
    assert max(seen) <= io._BLOCK_CELLS
