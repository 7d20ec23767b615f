"""CSV and sparse-triplet file handling.

Matrices travel as headerless CSV, one row per line.  Numbers are
written with ``repr``, the shortest decimal string that parses back to
the identical float, so rewriting a file is byte-stable and reading one
is lossless.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParseError

TRIPLET_BLOCK_LINES = 8192


def format_float(x: float) -> str:
    """Shortest decimal representation that round-trips the exact value."""
    return repr(float(x))


def write_matrix_csv(path: str | os.PathLike, M: np.ndarray) -> None:
    """Write a matrix as headerless CSV with round-trip precision."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="ascii") as fh:
        for row in M:
            fh.write(",".join(format_float(v) for v in row))
            fh.write("\n")


def read_matrix_csv(path: str | os.PathLike) -> np.ndarray:
    """Read a headerless CSV matrix; malformed content raises ParseError.

    The file must be ASCII with one matrix row per line and every row of
    the same width.  Blank lines are skipped; there is no header and no
    comment syntax, so a ``#`` line is a parse error.  Each value is
    converted exactly as ``float()`` converts it, so a file written by
    :func:`write_matrix_csv` reads back bit for bit.

    The whole file is parsed by numpy's C reader.  Anything that reader
    rejects is read again line by line, which either accepts it (``1_0``,
    say, as ``float()`` does) or raises a ParseError naming the line.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            # numpy would read a whitespace-only line as a row, and would
            # only warn about a file of nothing else; the line reader
            # reports such a file.
            if not all(line.isspace() for line in fh):
                fh.seek(0)
                return np.loadtxt((line for line in fh if not line.isspace()),
                                  delimiter=",", comments=None, ndmin=2,
                                  dtype=float)
    except (OSError, ValueError):
        pass
    return _read_by_lines(path)


def _read_by_lines(path: str | os.PathLike) -> np.ndarray:
    """The line-by-line reader that gives every ParseError its text.

    Lines are decoded as latin-1, which maps every byte, so that a
    non-ASCII byte is reported with its line number.
    """
    rows: list[list[float]] = []
    try:
        with open(path, "r", encoding="latin-1") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    if not line.isascii():
                        byte = next(c for c in line if not c.isascii())
                        raise ValueError(f"non-ASCII byte 0x{ord(byte):02x}")
                    line = line.strip()
                    if line:
                        rows.append([float(tok) for tok in line.split(",")])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no numeric rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: ragged rows (expected width {width})")
    return np.array(rows, dtype=float)


def write_triplets(path: str | os.PathLike, triplets) -> None:
    """Write sparse entries as ``row col sign`` lines, 1-based, sorted.

    ``triplets`` is an (m, 3) integer array or a list of (row, col, sign)
    tuples, in any order.  Lines are formatted a block of
    TRIPLET_BLOCK_LINES at a time, which bounds the Python integers and
    text held at once.
    """
    T = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    T = T[np.lexsort(T.T[::-1])]
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, T.shape[0], TRIPLET_BLOCK_LINES):
            block = T[start:start + TRIPLET_BLOCK_LINES]
            fh.write(("%d %d %d\n" * block.shape[0]) % tuple(block.ravel().tolist()))
