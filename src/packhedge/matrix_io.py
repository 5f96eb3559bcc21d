"""Loss-matrix file formats: headerless CSV and a compact binary layout.

Binary layout: magic ``CHLM``, one version byte, ``u32 T``, ``u32 K``, then
``T * K`` little-endian float64 values in row-major order.  CSV files hold
``T`` rows of ``K`` comma-separated values with no header; floats are written
with ``repr`` so both formats round-trip bit-exactly.

Memory: binary I/O holds the matrix only (a C-ordered little-endian float64
matrix is written from its own buffer, any other a block of rows at a time,
and a file is read straight into the returned array); CSV I/O holds the
matrix plus row blocks of ``core.block_rounds(K)`` rows.  A CSV read builds
the blocks and joins them once, so it peaks near two matrices.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from . import core

MAGIC = b"CHLM"
VERSION = 1
_HEADER = struct.Struct("<4sBII")

FORMATS = ("csv", "binary")


def _as_matrix(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a 2-D array of any dtype and order, without a copy where it is one."""
    m = np.atleast_2d(np.asarray(matrix))
    if m.ndim != 2:
        raise ValueError(f"a loss matrix must be 2-D, got shape {m.shape}")
    return m


def _row_blocks(m: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of 2-D ``m`` in blocks of ``core.block_rounds(K)`` rows, as C-ordered ``<f8``.

    A block is a view of ``m`` where ``m`` already has that layout; otherwise
    only that block is converted.
    """
    step = core.block_rounds(max(m.shape[1], 1))
    for t0 in range(0, m.shape[0], step):
        yield np.ascontiguousarray(m[t0 : t0 + step], dtype="<f8")


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    m = _as_matrix(matrix)
    with open(path, "w") as fh:  # the default encoding and newline translation, as Path.write_text
        if m.shape[0] == 0:
            fh.write("\n")  # no rows: one empty line
        for block in _row_blocks(m):
            fh.writelines(",".join(map(repr, row)) + "\n" for row in block.tolist())


def _csv_blocks(path: str | Path, fh) -> Iterator[np.ndarray]:
    """The rows of the open CSV file ``fh`` as float64 blocks of ``core.block_rounds(K)`` rows.

    The file is read a line at a time, and each line is split again as
    ``str.splitlines`` splits the whole text; blank lines are skipped.  A bad
    value, or a row of another width than the first, is refused with the
    path and the 1-based line number.
    """
    rows: list[list[float]] = []
    width = 0
    for number, text in enumerate(fh, 1):
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
            width = width or len(row)
            if len(row) != width:
                raise ValueError(
                    f"{path}: line {number}: ragged rows in matrix file"
                    f" ({width} values per row expected, got {len(row)})"
                )
            rows.append(row)
            if len(rows) == core.block_rounds(width):
                yield np.array(rows, dtype=np.float64)
                rows = []
    if rows:
        yield np.array(rows, dtype=np.float64)


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a CSV matrix file a block of rows at a time, and join the blocks once."""
    with open(path) as fh:  # the default encoding and newline translation, as Path.read_text
        blocks = list(_csv_blocks(path, fh))
    if not blocks:
        raise ValueError(f"{path}: empty matrix file")
    return np.concatenate(blocks)


def write_matrix_binary(path: str | Path, matrix: np.ndarray) -> None:
    m = _as_matrix(matrix)
    rounds, experts = m.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, rounds, experts))
        for block in _row_blocks(m):
            fh.write(block)


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
