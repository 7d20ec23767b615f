"""Lossless CSV round trips and sparse-triplet export."""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmds import constraint_matrix, fileio, read_matrix_csv, write_matrix_csv, write_triplets
from dualmds.errors import ParseError
from dualmds.fileio import format_float, format_integers, write_integer_csv

INT64 = np.iinfo(np.int64)


class TestFormatFloat:
    def test_short_decimals_stay_short(self):
        assert format_float(0.1) == "0.1"
        assert format_float(2.0) == "2.0"
        assert format_float(-0.25) == "-0.25"

    def test_round_trips_exactly(self):
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [
                rng.standard_normal(50),
                rng.standard_normal(10) * 1e-300,
                rng.standard_normal(10) * 1e300,
                [0.0, -0.0, 1.0 / 3.0, np.pi],
            ]
        )
        for x in values:
            assert float(format_float(float(x))) == float(x)


def percent_d(rows) -> bytes:
    """The ``%d`` oracle: rows of three integers as ``row col sign`` lines."""
    rows = [tuple(int(v) for v in row) for row in rows]
    return (("%d %d %d\n" * len(rows)) % tuple(v for row in rows for v in row)).encode()


def repr_csv(M) -> bytes:
    """The ``repr`` oracle: a float matrix as headerless CSV."""
    return "".join(",".join(map(repr, row)) + "\n" for row in M.tolist()).encode()


# 0, +-1, 10**j - 1 and 10**j for every width of 1 to 19 digits, and the
# int64 extremes
EDGE_INTEGERS = sorted({0, 1, -1, INT64.min, INT64.max, INT64.min + 1}
                       | {s * (10**j + e) for j in range(1, 19)
                          for e in (-1, 0) for s in (1, -1)})


class TestFormatIntegers:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(st.sampled_from(EDGE_INTEGERS),
                                          st.integers(INT64.min, INT64.max))] * 3),
                    max_size=50))
    def test_matches_percent_d(self, rows):
        X = np.array(rows, dtype=np.int64).reshape(-1, 3)
        assert format_integers(X) == percent_d(rows)

    @pytest.mark.parametrize("rows", [
        [(INT64.min, INT64.max, 0)],
        [(v, -v, 1) for v in EDGE_INTEGERS if v != INT64.min],
        [(-1, 2, -3), (-40, 5, -600), (-7, 8, -9)],
        [(0, 0, 0)] * 4,
        [(9, 99, 999)],
    ], ids=["extremes", "every-width", "all-negative-columns", "zeros", "no-negative"])
    def test_cases(self, rows):
        assert format_integers(np.array(rows, dtype=np.int64)) == percent_d(rows)

    def test_empty_input(self):
        assert format_integers(np.empty((0, 3), dtype=np.int64)) == b""
        assert percent_d([]) == b""

    def test_csv_separator_renders_repr_of_floats(self):
        X = np.array([[-1, 0, 1], [12, -345, 6789]])
        assert format_integers(X, b".0,", b".0\n") == repr_csv(X.astype(float))

    @pytest.mark.parametrize("sep, end", [(b",", b"\r\n"), (b"\0", b"\n")])
    def test_rejects_unequal_or_nul_separators(self, sep, end):
        with pytest.raises(ValueError):
            format_integers(np.ones((1, 2), dtype=np.int64), sep, end)


class TestMatrixCsv:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((7, 3)) * np.logspace(-8, 8, 3)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        np.testing.assert_array_equal(read_matrix_csv(path), M)

    def test_rewrite_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((4, 4))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_matrix_csv(first, M)
        write_matrix_csv(second, read_matrix_csv(first))
        assert first.read_bytes() == second.read_bytes()

    def test_vector_becomes_single_row(self, tmp_path):
        path = tmp_path / "v.csv"
        write_matrix_csv(path, np.array([1.0, 2.5, -3.0]))
        assert path.read_text() == "1.0,2.5,-3.0\n"
        assert read_matrix_csv(path).shape == (1, 3)

    def test_rows_written_in_blocks(self, tmp_path, monkeypatch):
        # repr of every float, non-integers included, whatever the block size
        monkeypatch.setattr(fileio, "CSV_BLOCK_ENTRIES", 4)
        rng = np.random.default_rng(3)
        M = rng.standard_normal((7, 3)) * np.array([1e-300, 1.0, 1e300])
        M[0] = [0.0, -0.0, 2.0]
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        assert path.read_bytes() == repr_csv(M)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n\n")
        np.testing.assert_array_equal(
            read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]]
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_matrix_csv(tmp_path / "absent.csv")

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,two\n")
        with pytest.raises(ParseError, match="bad.csv:1"):
            read_matrix_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError,
                           match=r"ragged\.csv: ragged rows \(expected width 2\)"):
            read_matrix_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no numeric rows"):
                read_matrix_csv(path)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def write_random_bit_patterns(path) -> np.ndarray:
    """A 100 x 100 file of finite doubles with random bits; its values."""
    rng = np.random.default_rng(20)
    raw = rng.integers(0, 2**64, size=12_000, dtype=np.uint64).view(np.float64)
    values = raw[np.isfinite(raw)][:10_000].reshape(100, 100)
    path.write_text("".join(",".join(repr(v) for v in row) + "\n"
                            for row in values.tolist()))
    return values


def write_long_decimal_strings(path) -> list[list[float]]:
    """A 100 x 10 file of long and boundary decimals; ``float()`` of each."""
    rng = np.random.default_rng(21)
    tokens = [
        "4.9e-324",
        "2.4703282292062327e-324",
        "2.4703282292062328e-324",
        "2.2250738585072011e-308",
        "2.2250738585072013830902327173324040642192159804623318306e-308",
        "9007199254740993",
        "1.00000000000000011102230246251565404236316680908203125",
        "1.000000000000000111022302462515654042363166809082031251",
        "1.7976931348623157e308",
        "-0.0",
        "0.1000000000000000055511151231257827021181583404541015625",
    ]
    for _ in range(989):
        digits = "".join(rng.choice(list("0123456789"), size=rng.integers(18, 41)))
        sign = rng.choice(["", "-", "+"])
        tokens.append(f"{sign}{digits[0]}.{digits[1:]}e{rng.integers(-330, 300)}")
    rows = [tokens[k:k + 10] for k in range(0, len(tokens), 10)]
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return [[float(tok) for tok in row] for row in rows]


class TestReaderAgreesWithFloat:
    """Every value reads exactly as ``float()`` converts its text."""

    def test_random_bit_patterns(self, tmp_path):
        path = tmp_path / "m.csv"
        values = write_random_bit_patterns(path)
        assert np.array_equal(bits(read_matrix_csv(path)), bits(values))

    def test_long_decimal_strings(self, tmp_path):
        path = tmp_path / "long.csv"
        expected = write_long_decimal_strings(path)
        assert np.array_equal(bits(read_matrix_csv(path)), bits(expected))


class TestReaderFormat:
    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1.5,2.0\r\n3.0,4.25\r\n")
        np.testing.assert_array_equal(read_matrix_csv(path),
                                      [[1.5, 2.0], [3.0, 4.25]])

    def test_whitespace_only_lines_and_padded_fields(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0, 2.0\n   \n\t\n 3.0 ,4.0\n")
        np.testing.assert_array_equal(read_matrix_csv(path),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_whitespace_only_lines_need_no_rescan(self, tmp_path, monkeypatch):
        def rescan(path):
            raise AssertionError("line-by-line rescan")

        monkeypatch.setattr(fileio, "_read_by_lines", rescan)
        path = tmp_path / "m.csv"
        path.write_text(" \n1.0,2.0\n\t \n3.0,4.0\n  \n")
        np.testing.assert_array_equal(read_matrix_csv(path),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_underscore_digits_read_as_float_reads_them(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1_0,2.5\n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[10.0, 2.5]])

    def test_single_column(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0\n2.0\n")
        assert read_matrix_csv(path).shape == (2, 1)

    def test_error_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n\n1,2\n1,x\n")
        with pytest.raises(ParseError, match=r"bad\.csv:4: could not convert "
                                             r"string to float: 'x'"):
            read_matrix_csv(path)

    def test_hash_line_is_not_a_comment(self, tmp_path):
        path = tmp_path / "hash.csv"
        path.write_text("1.0,2.0\n# note\n3.0,4.0\n")
        with pytest.raises(ParseError, match=r"hash\.csv:2: "):
            read_matrix_csv(path)

    def test_empty_field(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("1.0,2.0\n3.0,\n")
        with pytest.raises(ParseError, match=r"gap\.csv:2: "):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text", ["\n", " \n\n\t\n"])
    def test_blank_file_does_not_warn(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="empty.csv: no numeric rows"):
                read_matrix_csv(path)

    def test_conversion_error_reported_before_raggedness(self, tmp_path):
        path = tmp_path / "both.csv"
        path.write_text("1.0,2.0\n3.0\n4.0,x\n")
        with pytest.raises(ParseError, match=r"both\.csv:3: "):
            read_matrix_csv(path)

    def test_non_ascii_byte(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"0,1\n\n1,\xe90\n")
        with pytest.raises(ParseError, match=r"latin\.csv:3: non-ASCII byte 0xe9"):
            read_matrix_csv(path)


def read_and_reap(path) -> np.ndarray:
    """read_matrix_csv, then check that no child process outlived it."""
    try:
        return read_matrix_csv(path)
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def serial_error(path, monkeypatch) -> str:
    """The ParseError text of a read on one CPU."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(ParseError) as serial:
            read_matrix_csv(path)
    return str(serial.value)


@pytest.fixture(params=[2, 3])
def cpus(request, monkeypatch):
    """Pretend the process may run on 2 or 3 CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


@pytest.fixture
def forks(monkeypatch):
    """A list that gains one entry per os.fork call made in the parent."""
    calls = []
    real = os.fork

    def fork():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


class TestChunkedReader:
    """A read split across forked children matches a serial read exactly."""

    def test_random_bit_patterns(self, tmp_path, cpus, forks):
        path = tmp_path / "m.csv"
        values = write_random_bit_patterns(path)
        assert np.array_equal(bits(read_and_reap(path)), bits(values))
        assert len(forks) == cpus - 1

    def test_long_decimal_strings(self, tmp_path, cpus):
        path = tmp_path / "long.csv"
        expected = write_long_decimal_strings(path)
        assert np.array_equal(bits(read_and_reap(path)), bits(expected))

    def test_bad_token_in_last_chunk(self, tmp_path, cpus, monkeypatch):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n\n3,4\n5,6\n7,8\n9,1\n2,x\n")
        with pytest.raises(ParseError) as chunked:
            read_and_reap(path)
        assert str(chunked.value) == serial_error(path, monkeypatch)
        assert str(chunked.value) == (f"{path}:7: could not convert string "
                                      "to float: 'x'")

    def test_bad_token_in_first_chunk(self, tmp_path, cpus, monkeypatch):
        path = tmp_path / "bad.csv"
        path.write_text("1,y\n3,4\n5,6\n7,8\n9,1\n2,3\n")
        with pytest.raises(ParseError) as chunked:
            read_and_reap(path)
        assert str(chunked.value) == serial_error(path, monkeypatch)
        assert str(chunked.value).startswith(f"{path}:1: ")

    @pytest.mark.parametrize("first, rest", [("1,2\n", "7,8,9\n"), ("7,8,9\n", "1,2\n")])
    def test_chunks_of_different_widths(self, tmp_path, cpus, monkeypatch, first, rest):
        # Each chunk is rectangular on its own; only the whole is ragged.
        path = tmp_path / "ragged.csv"
        head = 6 // cpus
        path.write_text(first * head + rest * (6 - head))
        with pytest.raises(ParseError) as chunked:
            read_and_reap(path)
        assert str(chunked.value) == serial_error(path, monkeypatch)
        width = first.count(",") + 1
        assert str(chunked.value) == f"{path}: ragged rows (expected width {width})"

    def test_whitespace_lines_and_crlf_at_a_cut(self, tmp_path, cpus):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\r\n \r\n3,4\r\n\t\r\n\r\n5,6\r\n  \r\n7,8\r\n"
                         b"\r\n9,10\r\n11,12\r\n\r\n")
        np.testing.assert_array_equal(read_and_reap(path),
                                      np.arange(1.0, 13.0).reshape(6, 2))

    @pytest.mark.parametrize("text, rows", [("1.5\n", 1), ("\n1.5,2\n\n3,4\n", 2)])
    def test_fewer_lines_than_cpus(self, tmp_path, monkeypatch, forks, text, rows):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert read_and_reap(path).shape == (rows, text.split()[0].count(",") + 1)
        assert len(forks) == rows - 1

    def test_one_cpu_reads_serially_without_fork(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked on one CPU")

        calls = []
        loadtxt = np.loadtxt

        def counting_loadtxt(lines, **kwargs):
            calls.append(list(lines))
            return loadtxt(calls[-1], **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        path = tmp_path / "m.csv"
        path.write_text("1,2\n\n3,4\n5,6\n")
        np.testing.assert_array_equal(read_and_reap(path), [[1, 2], [3, 4], [5, 6]])
        assert calls == [["1,2\n", "3,4\n", "5,6\n"]]

    def test_no_fork_function_reads_serially(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(os, "fork")
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(read_and_reap(path), [[1, 2], [3, 4]])

    def test_failed_child_falls_back_to_line_reader(self, tmp_path, cpus, monkeypatch):
        path = tmp_path / "m.csv"
        values = write_random_bit_patterns(path)
        tail = path.read_text().splitlines(keepends=True)[-1]
        loadtxt = np.loadtxt

        def fail_on_tail(lines, **kwargs):
            if lines[-1] == tail:
                raise ValueError("tail chunk")
            return loadtxt(lines, **kwargs)

        fallbacks = []
        read_by_lines = fileio._read_by_lines

        def counting_read_by_lines(p):
            fallbacks.append(p)
            return read_by_lines(p)

        monkeypatch.setattr(np, "loadtxt", fail_on_tail)
        monkeypatch.setattr(fileio, "_read_by_lines", counting_read_by_lines)
        assert np.array_equal(bits(read_and_reap(path)), bits(values))
        assert fallbacks == [path]


@pytest.fixture
def lexsorts(monkeypatch):
    """A list that gains one entry per np.lexsort call."""
    calls = []
    real = np.lexsort

    def lexsort(keys, *args, **kwargs):
        calls.append(1)
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", lexsort)
    return calls


class TestTriplets:
    """Any order in, sorted lines out; sorted input is not sorted again."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_constraint_triplets_not_sorted_again(self, n, tmp_path, lexsorts):
        T = constraint_matrix(n).triplets()
        path = tmp_path / "t.txt"
        write_triplets(path, T)
        assert lexsorts == []
        assert path.read_bytes() == percent_d(T)

    def test_lines_sorted_and_formatted(self, tmp_path, lexsorts):
        path = tmp_path / "t.txt"
        write_triplets(path, [(2, 1, -1), (1, 3, -1), (1, 1, 1)])
        assert path.read_text() == "1 1 1\n1 3 -1\n2 1 -1\n"
        assert lexsorts == [1]

    def test_unsorted_array(self, tmp_path, lexsorts):
        path = tmp_path / "t.txt"
        write_triplets(path, np.array([[12, 3, 1], [2, 10, -1], [2, 9, -1]]))
        assert path.read_text() == "2 9 -1\n2 10 -1\n12 3 1\n"
        assert lexsorts == [1]

    def test_lines_past_one_block(self, tmp_path, monkeypatch, lexsorts):
        monkeypatch.setattr(fileio, "TRIPLET_BLOCK_LINES", 4)
        entries = [(r, c, 1 - 2 * (c % 2)) for r in range(3, 0, -1) for c in (3, 1, 2)]
        path = tmp_path / "t.txt"
        write_triplets(path, entries)
        assert path.read_text() == "".join(f"{r} {c} {s}\n" for r, c, s in sorted(entries))
        assert lexsorts == [1]

    def test_empty_list(self, tmp_path):
        path = tmp_path / "t.txt"
        write_triplets(path, [])
        assert path.read_text() == ""

    def test_ties_and_duplicates_in_sorted_order(self, tmp_path, lexsorts):
        entries = [(2, 5, 1), (1, 9, -1), (2, 3, -1), (1, 9, -1), (2, 3, -1),
                   (1, 2, 1), (2, 5, -1)]
        path = tmp_path / "t.txt"
        write_triplets(path, entries)
        assert path.read_bytes() == percent_d(sorted(entries))
        assert lexsorts == [1]

    def test_sorted_ties_and_duplicates_kept(self, tmp_path, lexsorts):
        entries = sorted([(1, 2, 1), (1, 2, 1), (1, 3, -1), (2, 1, -1), (2, 1, 1)])
        path = tmp_path / "t.txt"
        write_triplets(path, entries)
        assert path.read_bytes() == percent_d(entries)
        assert lexsorts == []

    def test_order_decided_without_overflow(self, tmp_path):
        # INT64.min - INT64.max overflows to +1: a difference would call
        # this pair sorted
        entries = [(INT64.max, 1, 1), (INT64.min, 1, 1), (0, INT64.max, -1),
                   (0, INT64.min, -1)]
        path = tmp_path / "t.txt"
        write_triplets(path, entries)
        assert path.read_bytes() == percent_d(sorted(entries))


class TestIntegerCsv:
    def test_matches_float_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "CSV_BLOCK_ENTRIES", 4)
        rng = np.random.default_rng(4)
        M = rng.integers(-10**15, 10**15, size=(9, 5))
        M[0] = [0, 1, -1, 2**53, -(2**53)]
        path = tmp_path / "m.csv"
        write_integer_csv(path, (M[k:k + 2] for k in range(0, 9, 2)))
        assert path.read_bytes() == repr_csv(M.astype(float))

    @pytest.mark.parametrize("v", [2**53 + 1, -(2**53) - 1, 10**16, INT64.min])
    def test_rejects_entries_no_float_holds(self, v, tmp_path):
        # float(2**53 + 1) rounds, and repr(1e16) is "1e+16"
        with pytest.raises(ValueError):
            write_integer_csv(tmp_path / "m.csv", [np.array([[0], [v]])])
