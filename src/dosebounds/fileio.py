"""Atomic, reproducible file output plus plain CSV helpers.

Every writer lands the full payload in a temporary file first and renames it
into place, so interrupted runs never leave half-written artifacts; the file
gets the mode a plain ``open`` would give it (0o666 less the umask).  Floats
are rendered with 17 significant digits, which round-trips IEEE doubles.
JSON output is strict: numpy integers, floats and bools are written as their
Python values, and non-finite floats, which JSON cannot hold, as the strings
"inf", "-inf" and "nan".
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np


def format_float(value: float) -> str:
    return f"{float(value):.17g}"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates the file 0o600, and os.replace keeps that mode
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _strict_json(value):
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        value = value.item()  # the matching Python int, float or bool
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def write_json(path: str, payload) -> None:
    text = json.dumps(_strict_json(payload), indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(path, text + "\n")


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [
            format_float(cell) if isinstance(cell, (float, np.floating)) else str(cell)
            for cell in row
        ]
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Numeric CSV with one header row -> (column names, float matrix)."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        has_rows = any(line.strip() for line in handle)
    if not header:
        raise ValueError(f"{path}: empty file")
    if not has_rows:
        raise ValueError(f"{path}: no data rows")
    names = [cell.strip() for cell in header.split(",")]
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: header names {len(names)} columns, data has {data.shape[1]}")
    return names, data
