"""Lossless CSV round trips and sparse-triplet export."""

import warnings

import numpy as np
import pytest

from dualmds import fileio, read_matrix_csv, write_matrix_csv, write_triplets
from dualmds.errors import ParseError
from dualmds.fileio import format_float


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


class TestReaderAgreesWithFloat:
    """Every value reads exactly as ``float()`` converts its text."""

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(20)
        raw = rng.integers(0, 2**64, size=12_000, dtype=np.uint64).view(np.float64)
        values = raw[np.isfinite(raw)][:10_000].reshape(100, 100)
        path = tmp_path / "m.csv"
        path.write_text("".join(",".join(repr(v) for v in row) + "\n"
                                for row in values.tolist()))
        assert np.array_equal(bits(read_matrix_csv(path)), bits(values))

    def test_long_decimal_strings(self, tmp_path):
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
        path = tmp_path / "long.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        expected = [[float(tok) for tok in row] for row in rows]
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


class TestTriplets:
    def test_lines_sorted_and_formatted(self, tmp_path):
        path = tmp_path / "t.txt"
        write_triplets(path, [(2, 1, -1), (1, 3, -1), (1, 1, 1)])
        assert path.read_text() == "1 1 1\n1 3 -1\n2 1 -1\n"

    def test_empty_list(self, tmp_path):
        path = tmp_path / "t.txt"
        write_triplets(path, [])
        assert path.read_text() == ""
