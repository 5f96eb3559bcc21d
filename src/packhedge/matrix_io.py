"""Loss-matrix file formats: headerless CSV and a compact binary layout.

Binary layout: magic ``CHLM``, one version byte, ``u32 T``, ``u32 K``, then
``T * K`` little-endian float64 values in row-major order.  CSV files hold
``T`` rows of ``K`` comma-separated values with no header; floats are written
with ``repr`` so both formats round-trip bit-exactly.

Memory: binary writes hold the matrix only (a C-ordered little-endian
float64 matrix is written from its own buffer, any other a block of rows at a
time), and :func:`read_binary_rows` reads any rows of an open binary file by
their offset, so a ``finite_matrix`` run streams a binary file a block at a
time (``environments.MatrixFileOracle``).  CSV I/O holds the matrix plus row
blocks of ``core.block_rounds(K)`` rows: a CSV row cannot be found by its
offset, so a CSV file is read whole, and a read joins its blocks once, so it
peaks near two matrices.  Whole-matrix reads of either format refuse a
matrix above ``core.MATRIX_MAX_ENTRIES`` before they hold it.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

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


def _too_large(path: str | Path, rounds: int, experts: int) -> ValueError:
    return ValueError(
        f"{path}: a matrix of {rounds} x {experts} entries is too large to load"
        f" (guard: {core.MATRIX_MAX_ENTRIES} entries); runs stream binary matrix files"
    )


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a CSV matrix file a block of rows at a time, and join the blocks once.

    A file of more than ``core.MATRIX_MAX_ENTRIES`` entries is refused as soon
    as the rows read exceed the guard, before the blocks are joined.
    """
    blocks, rounds = [], 0
    with open(path) as fh:  # the default encoding and newline translation, as Path.read_text
        for block in _csv_blocks(path, fh):
            rounds += block.shape[0]
            if rounds * block.shape[1] > core.MATRIX_MAX_ENTRIES:
                raise _too_large(path, rounds, block.shape[1])
            blocks.append(block)
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


def open_matrix_binary(path: str | Path) -> tuple[BinaryIO, int, int]:
    """Open a binary matrix file and check its header and size; return ``(file, T, K)``."""
    fh = open(path, "rb")
    try:
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
    except BaseException:
        fh.close()
        raise
    return fh, rounds, experts


def read_binary_rows(fh: BinaryIO, t0: int, t1: int, experts: int) -> np.ndarray:
    """Rows ``t0 .. t1 - 1`` of the open binary matrix file ``fh`` of ``experts`` columns.

    The rows are read at their offset straight into a fresh C-ordered
    float64 array; a file shorter than that is refused with its path.
    """
    block = np.empty((t1 - t0, experts), dtype="<f8")
    fh.seek(_HEADER.size + 8 * t0 * experts)
    if fh.readinto(block.data) != block.nbytes:
        raise ValueError(f"{fh.name}: file shrank while it was read")
    return block.astype(np.float64, copy=False)


def read_matrix_binary(path: str | Path) -> np.ndarray:
    """Read a binary matrix file straight into the returned array (one copy).

    A matrix of more than ``core.MATRIX_MAX_ENTRIES`` entries is refused from
    its header, before anything is allocated.
    """
    fh, rounds, experts = open_matrix_binary(path)
    with fh:
        if rounds * experts > core.MATRIX_MAX_ENTRIES:
            raise _too_large(path, rounds, experts)
        return read_binary_rows(fh, 0, rounds, experts)


def save_matrix(path: str | Path, matrix: np.ndarray, fmt: str = "csv") -> None:
    if fmt == "csv":
        write_matrix_csv(path, matrix)
    elif fmt == "binary":
        write_matrix_binary(path, matrix)
    else:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")


def file_format(path: str | Path, fmt: str | None = None) -> str:
    """``fmt``, or if it is omitted the format sniffed from the file's magic bytes."""
    if fmt is None:
        with open(path, "rb") as fh:
            fmt = "binary" if fh.read(4) == MAGIC else "csv"
    return fmt


def load_matrix(path: str | Path, fmt: str | None = None) -> np.ndarray:
    """Read a matrix file whole; the format is sniffed from the magic bytes if omitted."""
    fmt = file_format(path, fmt)
    if fmt == "csv":
        return read_matrix_csv(path)
    if fmt == "binary":
        return read_matrix_binary(path)
    raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
