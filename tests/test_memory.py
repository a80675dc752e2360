"""Memory guards for the long-run paths, measured with tracemalloc.

numpy reports its data buffers to tracemalloc, so the traced peak of a
call counts every array it allocates.  The working-point stream keeps a
few 8-byte words per cycle (timestamps, rates, the combined signal) plus
one block of working arrays; the CSV writer keeps one block of rows.
Materialising the (cycles x 4) signals, or whole columns as Python
objects, breaks these bounds.
"""

import tracemalloc

import numpy as np
import pytest

from nvgyro import LITERATURE_CONSTANTS, FieldEnvironment, SequenceConfig, run_gyro_stream
from nvgyro import io, sequence

WORD = 8
CYCLES = (100_000, 400_000)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rotating", [False, True])
def test_stream_peak_is_a_few_words_per_cycle(rotating):
    cfg = SequenceConfig()
    env = FieldEnvironment(B=482.0)

    def nu_at(t):
        return 0.5 * np.sin(t)

    def peak(n):
        return _traced_peak(lambda: run_gyro_stream(
            cfg, env, LITERATURE_CONSTANTS, (n + 0.5) * cfg.cycle_period,
            np.random.default_rng(5), nu_at=nu_at if rotating else None))

    small, large = CYCLES
    p_small, p_large = peak(small), peak(large)
    assert (p_large - p_small) / (large - small) <= 4 * WORD
    assert p_small <= 4 * WORD * small + 512 * sequence._STREAM_BLOCK


def test_table_peak_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(2)

    def peak(rows):
        columns = [np.arange(rows), rng.normal(size=rows)]
        return _traced_peak(
            lambda: io.write_table(tmp_path / "t.csv", ["n", "x"], columns))

    assert peak(40_000) <= peak(5_000) + 64 * 1024
