"""Memory guards for the long-run paths, measured with tracemalloc.

numpy reports its data buffers to tracemalloc, so the traced peak of a
call counts every array it allocates.  The working-point stream keeps
one 8-byte word per cycle (the combined signal) plus one block of noise
draws, also when its environment's rates are an io.Producer made one
block at a time; the CSV writer keeps one block of rows, also when it writes
several tables that share a column in lockstep; `allan`
holds one word per cycle: the stream's signal becomes the rotation
estimate and then the Allan phase series in place, and the second
differences are summed one cache-sized leaf at a time.  Materialising
the (cycles x 4) signals, whole columns as Python objects or text, a
copy of the phase series or a run-length second difference breaks
these bounds.  `gyro` holds one word per cycle, its signal, in every
phase: its rates are made one stream block or sum leaf at a time, its
other columns, its rotation estimate and its telemetry included, one
write block at a time, and its regression and RMS are summed leaf by
leaf.  tracemalloc does
not see a buffer that is freed and allocated again for every block, so
the writer's page faults are counted too.
"""

import argparse
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nvgyro import (FieldEnvironment, NoiseHooks, PhysicalConstants, SequenceConfig,
                    run_gyro_stream)
from nvgyro import cli, io, sequence

WORD = 8
CYCLES = (100_000, 400_000)
TRIANGLE_CSV = Path(__file__).resolve().parents[1] / "configs" / "triangle_profile.csv"


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rotating", [False, True])
def test_stream_peak_is_a_few_words_per_cycle(rotating):
    # The combined signal is the one run-length array: a rotating run
    # gives its rates as an io.Producer, which the stream makes one
    # block at a time, so it is held to the static run's bound.
    cfg = SequenceConfig()
    env = FieldEnvironment(B=482.0)

    def run(n):
        run_env = env
        if rotating:
            run_env = env.replace(nu=io.Producer(n, lambda start, stop: 0.5 * np.sin(
                np.arange(start, stop) * cfg.cycle_period)))
        run_gyro_stream(cfg, run_env, PhysicalConstants(),
                        (n + 0.5) * cfg.cycle_period, np.random.default_rng(5))

    small, large = CYCLES
    p_small, p_large = (_traced_peak(lambda: run(n)) for n in CYCLES)
    assert (p_large - p_small) / (large - small) <= 2 * WORD
    assert p_small <= 2 * WORD * small + 512 * sequence._STREAM_BLOCK


@pytest.mark.parametrize("hooks", [False, True])
def test_static_stream_block_buffer_is_one_block_of_signals(hooks):
    # Beyond its output, a static run holds one block of noise draws and
    # under 128 KiB of small fixed arrays; a (block x 4) signal buffer, or
    # a noise buffer kept alive while the next noise is drawn, exceeds
    # it.  Each noise is drawn a block at a time, never as a run-length
    # array.
    cfg = SequenceConfig()
    if hooks:
        cfg = cfg.replace(noise=NoiseHooks(white_sigma=1e-5, random_walk_sigma=1e-5))

    def run(n):
        run_gyro_stream(cfg, FieldEnvironment(B=482.0), PhysicalConstants(),
                        (n + 0.5) * cfg.cycle_period, np.random.default_rng(5))

    run(3)  # numpy's first-call set-up is not the stream's
    n = 8 * sequence._STREAM_BLOCK + 7
    peak = _traced_peak(lambda: run(n))
    assert peak <= WORD * n + WORD * sequence._STREAM_BLOCK + 128 * 1024


def test_table_peak_does_not_grow_with_rows(tmp_path):
    # Warm: the first call builds the kernel's lookup tables, which the
    # 64 KiB allowance would otherwise pay for.
    rng = np.random.default_rng(2)
    io.write_tables({tmp_path / "t.csv": (["x"], [np.ones(3)])})

    def peak(rows):
        columns = [np.arange(rows), rng.normal(size=rows)]
        return _traced_peak(
            lambda: io.write_tables({tmp_path / "t.csv": (["n", "x"], columns)}))

    assert peak(40_000) <= peak(5_000) + 64 * 1024


def test_four_column_table_peak_is_one_block(tmp_path):
    # The shape of rotation.csv; the first call builds the kernel's
    # lookup tables, which later calls reuse.
    rng = np.random.default_rng(4)
    io.write_tables({tmp_path / "t.csv": (["x"], [np.ones(3)])})

    def peak(rows):
        columns = [np.arange(rows) * 0.007, rng.normal(size=rows),
                   360 * rng.normal(size=rows), 100 * rng.normal(size=rows)]
        return _traced_peak(lambda: io.write_tables({tmp_path / "t.csv": (
            ["t_s", "nu_hat_hz", "nu_hat_dps", "table_rate_dps"], columns)}))

    p_small, p_large = peak(5_000), peak(40_000)
    assert p_large <= p_small + 64 * 1024
    assert p_large <= 2 * 1024 * 1024


def test_fringes_group_peak_is_one_block(tmp_path):
    # The shape of a fringes run's tables: five tables share tau_s and
    # are written in lockstep, one block of distinct cells at a time.
    rng = np.random.default_rng(6)
    io.write_tables({tmp_path / "t.csv": (["x"], [np.ones(3)])})

    def peak(rows):
        taus = np.linspace(1e-6, 5e-3, rows)
        tables = {tmp_path / f"fringes_r{j}.csv": (["tau_s", "signal"],
                                                   [taus, rng.normal(0.5, 0.01, rows)])
                  for j in range(1, 5)}
        tables[tmp_path / "fringes_combined.csv"] = (
            ["tau_s", "signal", "sigma"],
            [taus, rng.normal(0.0, 0.01, rows), np.full(rows, 3e-4)])
        return _traced_peak(lambda: io.write_tables(tables))

    p_small, p_large = peak(5_000), peak(40_000)
    assert p_large <= p_small + 64 * 1024
    assert p_large <= 2 * 1024 * 1024


def test_kernel_block_peak_is_bounded():
    # One kernel call on a full block of float cells, its workspace
    # allocated inside the traced call: about 95 bytes per cell at its
    # peak, so _BLOCK_CELLS can grow only when the bytes per cell fall.
    # The tables are built once per process, before the trace.
    rng = np.random.default_rng(8)
    io._tables()
    rows = io._BLOCK_CELLS // 4
    columns = [np.arange(rows) * 0.007, rng.normal(size=rows),
               360 * rng.normal(size=rows), 1e-3 * rng.normal(size=rows)]
    peak = _traced_peak(lambda: io._cell_words(
        columns, [False] * 4, io._Workspace(io._BLOCK_CELLS)))
    assert peak <= 480 * 1024


def test_table_write_does_not_fault_per_block(tmp_path):
    # Minor page faults of writing a rotation.csv-shaped table, each in
    # its own fresh process: write_tables allocates its block-sized
    # buffers once per call, so the count does not grow with the blocks
    # (150 to 190 either way).  A buffer past glibc's 128 KiB mmap
    # threshold that is allocated for every block faults its pages in
    # again each time: thousands of faults at 40,000 rows.
    pytest.importorskip("resource")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = """if True:
        import resource, sys
        import numpy as np
        from nvgyro import io
        rows = int(sys.argv[1])
        rng = np.random.default_rng(4)
        columns = [np.arange(rows) * 0.007, rng.normal(size=rows),
                   360 * rng.normal(size=rows), 100 * rng.normal(size=rows)]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        io.write_tables({sys.argv[2]: (
            ["t_s", "nu_hat_hz", "nu_hat_dps", "table_rate_dps"], columns)})
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"""
    for rows in (40_000, 160_000):
        out = subprocess.run([sys.executable, "-c", code, str(rows), str(tmp_path / "t.csv")],
                             capture_output=True, text=True, env=env, timeout=120, check=True)
        assert int(out.stdout) < 1000, rows


def test_allan_peak_is_a_few_words_per_cycle():
    cfg = cli.default_config()

    def peak(n):
        args = argparse.Namespace(config=None, out=None,
                                  duration=(n + 0.5) * cfg.sequence.cycle_period)
        return _traced_peak(lambda: cli.cmd_allan(args, cfg))

    small, large = CYCLES
    assert (peak(large) - peak(small)) / (large - small) <= 1.5 * WORD


def test_gyro_peak_is_one_word_per_cycle(tmp_path, capsys):
    # The whole command, writes included, on the triangle profile: its
    # signal is the one run-length array, so the peak grows by one word
    # per cycle (a quarter more is the allowance).  Whole rates, time or
    # estimate columns, a run-length temporary in the regression, or a
    # stream block kept alive into the next breaks it.
    argv = ["gyro", "--profile", str(TRIANGLE_CSV), "--out", str(tmp_path)]
    assert cli.main(argv + ["--duration", "1"]) == 0  # the kernel's tables

    def peak(duration):
        return _traced_peak(lambda: cli.main(argv + ["--duration", str(duration)]))

    small, large = (cli.default_config().sequence.n_cycles(d) for d in (100, 400))
    assert (peak(400) - peak(100)) / (large - small) <= 1.25 * WORD


def test_gyro_holds_its_signal_alone_when_it_returns(tmp_path):
    # What cmd_gyro hands main to write, on the triangle profile: the
    # signal is its one run-length array, and the rotation estimate and
    # the telemetry are producers made per write block.  A whole
    # estimate (or the rates' buffer kept for it) adds a word per cycle,
    # and whole telemetry columns 0.53 MB that grow with the profile.
    cfg = cli.default_config()
    assert cli.cmd_gyro(argparse.Namespace(profile=str(TRIANGLE_CSV), duration=1.0,
                                           config=None, out=None), cfg)

    def held(duration):
        args = argparse.Namespace(profile=str(TRIANGLE_CSV), duration=duration,
                                  config=None, out=None)
        tracemalloc.start()
        try:
            outputs = cli.cmd_gyro(args, cfg)  # alive while it is measured
            return tracemalloc.get_traced_memory()[0] if outputs else None
        finally:
            tracemalloc.stop()

    small, large = (cfg.sequence.n_cycles(d) for d in (100, 400))
    h_small, h_large = held(100), held(400)
    assert (h_large - h_small) / (large - small) <= 1.5 * WORD
    assert h_small <= WORD * small + 256 * 1024
