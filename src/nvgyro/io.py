"""Plot-ready CSV and JSON emission with byte-deterministic formatting."""

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
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(n):
            fh.write(",".join(_fmt(a[i]) for a in arrays) + "\n")


def _fmt(value) -> str:
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return repr(float(value))


def read_table(path) -> dict[str, np.ndarray]:
    """Read a CSV written by write_table back into named float columns."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if not header:
            raise ConfigError(f"{path}: empty table")
        names = header.split(",")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != len(names):
                raise ConfigError(f"{path}:{lineno}: expected {len(names)} "
                                  f"columns, got {len(cells)}")
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    data = np.array(rows) if rows else np.empty((0, len(names)))
    return {name: data[:, i] for i, name in enumerate(names)}


def write_json(path, payload: dict) -> None:
    with Path(path).open("w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
