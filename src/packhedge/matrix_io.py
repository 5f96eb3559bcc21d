"""Loss-matrix file formats: headerless CSV and a compact binary layout.

Binary layout: magic ``CHLM``, one version byte, ``u32 T``, ``u32 K``, then
``T * K`` little-endian float64 values in row-major order.  CSV files hold
``T`` rows of ``K`` comma-separated values with no header; floats are written
with ``repr`` so both formats round-trip bit-exactly.

Memory: a matrix is written from a 2-D array or from a loss oracle's
``rows``, a block of ``core.block_rounds(K)`` rows at a time, so a write
holds one block beyond its source (a C-ordered little-endian float64 array
is written from its own buffer).  :func:`read_binary_rows` reads any rows
of an open binary file by their offset, so a binary file is only ever read
a block at a time (``environments.MatrixFileOracle``).  A CSV row cannot be
found by its offset, so a CSV file is read whole, in blocks joined once: a
read peaks near two matrices, and refuses a matrix above
``core.MATRIX_MAX_ENTRIES`` before it joins it.
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


def _row_blocks(source: np.ndarray | core.LossOracle) -> tuple[int, int, Iterator[np.ndarray]]:
    """``source``'s ``T`` and ``K``, and its rows as C-ordered ``<f8`` blocks of ``block_rounds(K)``.

    ``source`` is a loss oracle, whose blocks are what its ``rows`` returns,
    or a 2-D array of any dtype and order, whose blocks are views where it
    already has that layout and otherwise converted one block at a time.
    A source of no rows or no columns is refused, as the readers refuse it.
    """
    if isinstance(source, core.LossOracle):
        rounds, experts, rows = source.horizon(), source.num_experts(), source.rows
    else:
        m = np.atleast_2d(np.asarray(source))
        if m.ndim != 2:
            raise ValueError(f"a loss matrix must be 2-D, got shape {m.shape}")
        (rounds, experts), rows = m.shape, lambda t0, t1: m[t0:t1]
    if rounds == 0 or experts == 0:
        raise ValueError(f"a {rounds} x {experts} matrix has no losses")
    step = core.block_rounds(experts)
    blocks = (
        np.ascontiguousarray(rows(t0, min(rounds, t0 + step)), dtype="<f8")
        for t0 in range(0, rounds, step)
    )
    return rounds, experts, blocks


def write_matrix_csv(path: str | Path, matrix: np.ndarray | core.LossOracle) -> None:
    _, _, blocks = _row_blocks(matrix)
    with open(path, "w") as fh:  # the default encoding and newline translation, as Path.write_text
        for block in blocks:
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
    """Read a CSV matrix file a block of rows at a time, and join the blocks once.

    A file of more than ``core.MATRIX_MAX_ENTRIES`` entries is refused as soon
    as the rows read exceed the guard, before the blocks are joined.
    """
    blocks, rounds = [], 0
    try:
        with open(path) as fh:  # the default encoding and newline translation, as Path.read_text
            for block in _csv_blocks(path, fh):
                rounds += block.shape[0]
                core.check_entries(
                    rounds * block.shape[1],
                    f"{path}: a matrix of {rounds} x {block.shape[1]} entries is too large to"
                    " load; runs stream binary matrix files",
                )
                blocks.append(block)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a text file ({exc})") from None
    if not blocks:
        raise ValueError(f"{path}: empty matrix file")
    return np.concatenate(blocks)


def write_matrix_binary(path: str | Path, matrix: np.ndarray | core.LossOracle) -> None:
    rounds, experts, blocks = _row_blocks(matrix)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, rounds, experts))
        for block in blocks:
            fh.write(block)


def open_matrix_binary(path: str | Path) -> tuple[BinaryIO, int, int]:
    """Open a binary matrix file and check its header and size; return ``(file, T, K)``.

    A header of no rows or no columns is refused: a loss matrix has at least one of each.
    """
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
        if rounds == 0 or experts == 0:
            raise ValueError(f"{path}: a {rounds} x {experts} matrix has no losses")
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


def save_matrix(path: str | Path, matrix: np.ndarray | core.LossOracle, fmt: str = "csv") -> None:
    if fmt == "csv":
        write_matrix_csv(path, matrix)
    elif fmt == "binary":
        write_matrix_binary(path, matrix)
    else:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")


def file_format(path: str | Path) -> str:
    """The file's format: ``"binary"`` if it starts with the magic bytes, ``"csv"`` otherwise."""
    with open(path, "rb") as fh:
        return "binary" if fh.read(len(MAGIC)) == MAGIC else "csv"

