"""Byte identity of the CSV writer with repr(float) and str(int).

write_table formats cells with a numpy kernel (Schubfach digits and a
fixed-slot layout); these tests hold it to CPython's own text for every
kind of double: random bit patterns, the irregular spacing at powers of
two, powers of ten, the switch points of the "e" notation, integral
values around 2**53, subnormals, signed zeros, nan and infinities, and
the extremes of int64 and uint64.
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

from nvgyro import io


def _written(tmp_path, columns) -> str:
    path = tmp_path / "t.csv"
    names = [f"c{j}" for j in range(len(columns))]
    io.write_table(path, names, columns)
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


def test_unequal_columns_are_rejected(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="equal lengths"):
        io.write_table(path, ["a", "b"], [np.zeros(3), np.zeros(2)])
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


def test_round_to_odd_sticky_threshold():
    # Schubfach's exact cases: for 0 <= e <= 22 the g table holds
    # G + 1 with G = 10**e * 2**(128 - n) exact, so the scaled value
    # g * cp / 2**128 of cp = m * 2**(n - e) is the integer m * 5**e plus
    # (g - G) * cp / 2**128: the g error alone decides the 64 bits below
    # the result.  Raising that error by delta puts those bits at w, and
    # the lowest bit is set only for w > 1.
    g_limbs = io._tables()[0]
    gs, cps, expected = [], [], []
    for e in range(23):
        n = (10**e).bit_length()
        big_g = 10**e << (128 - n)
        assert sum(int(g_limbs[i][292 + e]) << (32 * i) for i in range(4)) == big_g + 1
        for m in (2, 6, 10):
            cp = m << (n - e)
            for w in (0, 1, 2, 3):
                delta = -(-w * 2**64 // cp) if w else 1
                assert (delta * cp) >> 64 == w
                gs.append(big_g + delta)
                cps.append(cp)
                expected.append(m * 5**e + (w > 1))
    limbs = tuple(np.array([(g >> (32 * i)) & 0xFFFFFFFF for g in gs], np.uint64)
                  for i in range(4))
    got = io._round_to_odd(limbs, np.array(cps, np.uint64))
    assert got.tolist() == expected
