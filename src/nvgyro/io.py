"""Plot-ready CSV and JSON emission with byte-deterministic formatting,
and the one reader of text input files."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError


def write_table(path, names: list[str], columns: list[np.ndarray]) -> None:
    """CSV with a header row; floats use shortest round-trip repr."""
    path = Path(path)
    arrays = [np.asarray(col) for col in columns]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("columns must have equal lengths")
    cells = [map(str, a.tolist()) if np.issubdtype(a.dtype, np.integer)
             else map(repr, a.astype(float).tolist()) for a in arrays]
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


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
