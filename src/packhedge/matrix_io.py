"""Loss-matrix file formats: headerless CSV and a compact binary layout.

Binary layout: magic ``CHLM``, one version byte, ``u32 T``, ``u32 K``, then
``T * K`` little-endian float64 values in row-major order.  CSV files hold
``T`` rows of ``K`` comma-separated values with no header; floats are written
with ``repr`` so both formats round-trip bit-exactly.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CHLM"
VERSION = 1
_HEADER = struct.Struct("<4sBII")

FORMATS = ("csv", "binary")


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    lines = [",".join(repr(float(x)) for x in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path: str | Path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows in matrix file")
    return np.array(rows, dtype=np.float64)


def write_matrix_binary(path: str | Path, matrix: np.ndarray) -> None:
    m = np.atleast_2d(np.ascontiguousarray(matrix, dtype=np.float64))
    rounds, experts = m.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, rounds, experts))
        fh.write(m.astype("<f8", copy=False).tobytes(order="C"))


def read_matrix_binary(path: str | Path) -> np.ndarray:
    """Read a binary matrix file straight into the returned array (one copy)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, rounds, experts = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + 8 * rounds * experts
        if size != expected:
            raise ValueError(f"{path}: size {size} does not match header ({expected} bytes)")
        matrix = np.empty((rounds, experts), dtype="<f8")
        if fh.readinto(matrix.data) != matrix.nbytes:
            raise ValueError(f"{path}: file shrank while it was read")
    return matrix.astype(np.float64, copy=False)


def save_matrix(path: str | Path, matrix: np.ndarray, fmt: str = "csv") -> None:
    if fmt == "csv":
        write_matrix_csv(path, matrix)
    elif fmt == "binary":
        write_matrix_binary(path, matrix)
    else:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")


def load_matrix(path: str | Path, fmt: str | None = None) -> np.ndarray:
    """Read a matrix file; the format is sniffed from the magic bytes if omitted."""
    if fmt is None:
        with open(path, "rb") as fh:
            fmt = "binary" if fh.read(4) == MAGIC else "csv"
    if fmt == "csv":
        return read_matrix_csv(path)
    if fmt == "binary":
        return read_matrix_binary(path)
    raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
