"""CSV and sparse-triplet file handling.

Matrices travel as headerless CSV, one row per line.  Numbers are
written with ``repr``, the shortest decimal string that parses back to
the identical float, so rewriting a file is byte-stable and reading one
is lossless.

Integer output (the triplet file, and the dense CSV of an integer
matrix) is formatted by :func:`format_integers`, which turns a whole
int64 block into the bytes of ``%d`` with numpy operations.  Every writer
works a block of rows at a time, so the memory it holds is bounded by a
block, not by the matrix or the file.
"""

from __future__ import annotations

import mmap
import os
import warnings
from collections.abc import Iterable

import numpy as np

from .errors import ParseError

TRIPLET_BLOCK_LINES = 8192
# Entries per block of the CSV writers.
CSV_BLOCK_ENTRIES = 1 << 16


def format_float(x: float) -> str:
    """Shortest decimal representation that round-trips the exact value."""
    return repr(float(x))


def format_integers(X: np.ndarray, sep: bytes = b" ", end: bytes = b"\n") -> bytes:
    """The bytes of ``%d`` for every entry of an (m, k) integer array.

    The entries of a row are joined by ``sep`` and every row ends with
    ``end``; the two must have the same length and hold no NUL byte.
    ``format_integers(X)`` equals ``("%d %d %d\\n" * m) % tuple(rows)``
    for k = 3.

    Each entry gets one byte slot per digit of the block's largest |x|,
    a '-' slot when the block has a negative entry, and its separator.
    The digits come from repeated division by 10 into uint8 planes, one
    plane per slot; a slot that ``%d`` would not print (a leading zero,
    or the '-' of a nonnegative entry) is set to NUL, and one compaction
    of the transposed planes drops every NUL.  |x| is taken through a
    uint64 view, so the int64 minimum formats correctly.
    """
    if len(sep) != len(end) or 0 in sep + end:
        raise ValueError("sep and end must be of equal length, without NUL bytes")
    X = np.asarray(X, dtype=np.int64)
    m, k = X.shape
    if X.size == 0:
        return end * m if k == 0 else b""
    magnitude = np.abs(X).view(np.uint64)
    negative = X < 0
    digits = len(str(int(magnitude.max())))
    lead = int(negative.any())
    body = lead + digits
    planes = np.empty((body + len(sep), m, k), dtype=np.uint8)
    planes[body:] = np.frombuffer(sep, dtype=np.uint8)[:, None, None]
    planes[body:, :, -1] = np.frombuffer(end, dtype=np.uint8)[:, None]
    q = magnitude
    for d in range(digits):
        plane = planes[body - 1 - d]
        if d < digits - 1:
            quotient = q // np.uint64(10)
            np.subtract(q, quotient * np.uint64(10), out=plane, casting="unsafe")
            q = quotient
        else:
            plane[...] = q
        plane += ord("0")
        if d:
            plane *= magnitude >= np.uint64(10**d)
    if lead:
        np.multiply(negative, ord("-"), out=planes[0], casting="unsafe")
    chars = planes.reshape(len(planes), -1).T.ravel()
    return np.compress(chars != 0, chars).tobytes()


def write_matrix_csv(path: str | os.PathLike, M: np.ndarray) -> None:
    """Write a matrix as headerless CSV with round-trip precision.

    Rows are formatted about CSV_BLOCK_ENTRIES entries at a time.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows = max(1, CSV_BLOCK_ENTRIES // max(1, M.shape[1]))
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, M.shape[0], rows):
            fh.write("".join(",".join(map(repr, row)) + "\n"
                             for row in M[start:start + rows].tolist()))


def write_integer_csv(path: str | os.PathLike, blocks: Iterable[np.ndarray]) -> None:
    """Write blocks of integer rows as :func:`write_matrix_csv` writes their floats.

    Each block is an (m, k) integer array with k >= 1.

    An integer with |v| <= 2**53 is a float exactly, and ``repr`` of that
    float is its ``%d`` text followed by ``.0``, so the file is
    byte-identical to ``write_matrix_csv(path, vstack(blocks))``, while
    only one block is held and formatted at a time.
    """
    with open(path, "wb") as fh:
        for block in blocks:
            block = np.asarray(block, dtype=np.int64)
            if block.size and np.abs(block).view(np.uint64).max() > 2**53:
                raise ValueError("write_integer_csv needs |entries| <= 2**53")
            fh.write(format_integers(block, b".0,", b".0\n"))


def read_matrix_csv(path: str | os.PathLike) -> np.ndarray:
    """Read a headerless CSV matrix; malformed content raises ParseError.

    The file must be ASCII with one matrix row per line and every row of
    the same width.  Blank lines are skipped; there is no header and no
    comment syntax, so a ``#`` line is a parse error.  Each value is
    converted exactly as ``float()`` converts it, so a file written by
    :func:`write_matrix_csv` reads back bit for bit.

    The file is read once and its lines are parsed by numpy's C reader,
    split into contiguous chunks across the CPUs in the process's
    affinity: this process parses the first chunk and a forked child
    each of the others, into one shared buffer.  The values and errors
    are identical to a serial read.  On one CPU, or where ``os.fork`` or
    ``os.sched_getaffinity`` does not exist, the read is serial.
    Anything the C reader rejects in any chunk is read again line by
    line, which either accepts it (``1_0``, say, as ``float()`` does) or
    raises a ParseError naming the line.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            # numpy would read a whitespace-only line as a row, and would
            # only warn about a file of nothing else; the line reader
            # reports such a file.
            lines = [line for line in fh if not line.isspace()]
        if lines:
            return _parse_lines(lines)
    except (OSError, ValueError):
        pass
    return _read_by_lines(path)


def _loadtxt(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)


def _parse_lines(lines: list[str]) -> np.ndarray:
    """Parse non-blank CSV lines, in forked children where CPUs allow.

    Raises ValueError when any chunk fails to parse or the chunks differ
    in width, and OSError when a fork or the shared buffer fails; the
    caller then reads the file line by line.
    """
    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        k = min(len(os.sched_getaffinity(0)), len(lines))
    if k == 1:
        return _loadtxt(lines)
    n = len(lines)
    width = lines[0].count(",") + 1
    cuts = [n * j // k for j in range(k + 1)]
    head = cuts[1]
    parent = os.getpid()
    pids = []
    with mmap.mmap(-1, (n - head) * width * 8) as shared:
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns when forking with live BLAS threads;
                # the children run no BLAS code.
                warnings.simplefilter("ignore", DeprecationWarning)
                for lo, hi in zip(cuts[1:], cuts[2:]):
                    pid = os.fork()
                    if pid == 0:
                        os._exit(_fill(lines[lo:hi], shared, (lo - head) * width, width))
                    pids.append(pid)
            out = np.empty((n, width))
            out[:head] = _loadtxt(lines[:head])
        finally:
            # A child reaches this only by an exception; it must never
            # return into the caller's frames.
            if os.getpid() != parent:
                os._exit(1)
            failed = [pid for pid in pids if os.waitpid(pid, 0)[1] != 0]
        if failed:
            raise ValueError(f"{len(failed)} of {len(pids)} chunk readers failed")
        out[head:] = np.frombuffer(shared, dtype=float).reshape(n - head, width)
    return out


def _fill(lines: list[str], shared: mmap.mmap, start: int, width: int) -> int:
    """Parse a chunk into ``shared`` from float ``start`` on; the exit status.

    Runs in a forked child: 0 when its rows parsed to the expected width,
    1 otherwise.  A warning is a failure, so the child writes nothing to
    stderr.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _loadtxt(lines)
    if rows.shape != (len(lines), width):
        return 1
    np.frombuffer(shared, dtype=float, count=rows.size, offset=8 * start)[:] = rows.ravel()
    return 0


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
    tuples, in any order.  Input already in order, such as
    :meth:`~dualmds.nearness.ConstraintMatrix.triplets`, is recognised in
    O(m) and not sorted again.  The lines are formatted by
    :func:`format_integers` a block of TRIPLET_BLOCK_LINES at a time.
    """
    T = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    if not _rows_sorted(T):
        T = T[np.lexsort(T.T[::-1])]
    with open(path, "wb") as fh:
        for start in range(0, T.shape[0], TRIPLET_BLOCK_LINES):
            fh.write(format_integers(T[start:start + TRIPLET_BLOCK_LINES]))


def _rows_sorted(T: np.ndarray) -> bool:
    """Whether the rows of ``T`` are in lexicographic order, in O(m).

    Consecutive rows are in order when their first differing column
    increases, or none differs.  That is folded from the last column
    back, with comparisons, which cannot overflow as differences can.
    """
    later, earlier = T[1:], T[:-1]
    ordered = np.ones(later.shape[0], dtype=bool)
    for c in range(T.shape[1] - 1, -1, -1):
        ordered = (later[:, c] > earlier[:, c]) | ((later[:, c] == earlier[:, c]) & ordered)
    return bool(ordered.all())
