"""Plot-ready CSV and JSON emission with byte-deterministic formatting,
and the one reader of text input files."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError


#: Rows formatted per write by write_table: bounds its working memory and
#: leaves the bytes unchanged.
_ROW_BLOCK = 4096


def write_table(path, names: list[str], columns: list[np.ndarray]) -> None:
    """CSV with a header row; floats use shortest round-trip repr.

    Integer columns are written as integers, every other column as
    float.  Rows are formatted _ROW_BLOCK at a time: each block's cells
    become Python numbers and one "%r,...\n" template per block turns
    them into text, so memory does not grow with the row count and the
    bytes do not depend on the block size.
    """
    path = Path(path)
    arrays = [np.asarray(col) for col in columns]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("columns must have equal lengths")
    dtypes = [a.dtype if np.issubdtype(a.dtype, np.integer) else float
              for a in arrays]
    k = len(arrays)
    row = ",".join(["%r"] * k) + "\n"
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, n, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, n)
            cells = [None] * ((stop - start) * k)
            for j, (a, dtype) in enumerate(zip(arrays, dtypes)):
                cells[j::k] = a[start:stop].astype(dtype, copy=False).tolist()
            fh.write(row * (stop - start) % tuple(cells))


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
