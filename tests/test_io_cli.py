"""Tests for matrix reading, result writing, and the CLI contract."""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import glmpca as g
from glmpca import DataError
from glmpca import io as gio
from glmpca import cli, optimizer
from glmpca.cli import run_cli
from glmpca.optimizer import FitResult

import oracle
from conftest import DATA_DIR

FIXTURE = DATA_DIR / "counts_10x20.mtx"


def make_result(n_obs=4, n_feat=3, n_latent=2, n_obs_cov=1, n_feat_cov=0):
    rng = np.random.default_rng(0)
    return FitResult(
        factors=rng.normal(size=(n_obs, n_latent)),
        loadings=rng.normal(size=(n_feat, n_latent)),
        coef_A=rng.normal(size=(n_feat, n_obs_cov)),
        coef_Gamma=rng.normal(size=(n_obs, n_feat_cov)),
        offset=rng.normal(size=n_obs),
        trace=[(1, -10.0), (2, -8.5), (3, -8.4)],
        converged=True, stop_reason="tol", iterations_run=3, final_q=-8.4)


class TestMatrixMarketReader:
    def test_coordinate_entries_fill_dense_zeros(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 2 5\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[0.0, 5.0], [0.0, 0.0]])
        assert loaded.row_names is None

    def test_comments_and_integer_field_accepted(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                        "% a comment\n2 3 2\n1 1 4\n2 3 1\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values,
                                      [[4.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_bad_banner_names_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(DataError, match=r":1:"):
            gio.read_matrix(path)

    def test_malformed_entry_names_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 x 5\n")
        with pytest.raises(DataError, match=r":3:"):
            gio.read_matrix(path)

    def test_out_of_bounds_entry_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n3 1 5\n")
        with pytest.raises(DataError, match="outside"):
            gio.read_matrix(path)

    @pytest.mark.parametrize("size", ["10000000000", "100000000"])
    def test_impossible_size_names_line_and_shape(self, tmp_path, size):
        # neither dense shape can be allocated on a 64-bit machine: the
        # first overflows the address arithmetic, the second is 71 PiB
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"% huge\n{size} {size} 0\n")
        with pytest.raises(DataError, match=rf"m\.mtx:3: .*{size} x {size}"):
            gio.read_matrix(path)

    @pytest.mark.parametrize("body, message", [
        ("2 2 3\n1 1 1\n", r"m\.mtx: 2 entries missing at end of file"),
        ("2 2 1\n1 1 1\n2 2 1\n", r"m\.mtx: more entries than declared"),
        ("% only comments\n\n", r"m\.mtx: missing size line"),
        ("2 2\n", r"m\.mtx:2: expected 'rows cols nnz' size line"),
        ("2 2 x\n", r"m\.mtx:2: non-integer size line"),
        ("2 -2 0\n", r"m\.mtx:2: invalid sizes"),
    ], ids=["truncated", "oversized", "no_size_line", "two_token_size",
            "non_integer_size", "negative_size"])
    def test_entry_count_and_size_line_errors(self, tmp_path, body,
                                              message):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        + body)
        with pytest.raises(DataError, match=message):
            gio.read_matrix(path)

    def test_non_utf8_byte_names_path(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                         b"% caf\xe9\n2 2 1\n1 1 1\n")
        with pytest.raises(DataError, match=r"m\.mtx: not UTF-8 text"):
            gio.read_matrix(path)

    def test_duplicate_coordinates_are_summed(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 4\n1 1 1.5\n2 2 1\n1 1 2\n1 1 -0.25\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values,
                                      [[3.25, 0.0], [0.0, 1.0]])

    def test_comments_between_entries_keep_line_numbers(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% header comment\n2 2 3\n1 1 1\n% between\n\n"
                        "2 2 1\n1 q 1\n")
        with pytest.raises(DataError,
                           match=r"m\.mtx:8: malformed entry '1 q 1'"):
            gio.read_matrix(path)

    @pytest.mark.parametrize("field", ["real", "integer"])
    @pytest.mark.parametrize("body, line, message", [
        ("1 1 1e308\n2 2 1\n1 1 1e308\n", 5,
         "entry (1, 1) sums past the largest double"),
        ("1 1 -1e308\n1 1 -1e308\n2 2 1\n", 4,
         "entry (1, 1) sums past the largest double"),
        ("2 2 1\n1 2 nan\n1 1 1\n", 4,
         "entry (1, 2) has the non-finite value 'nan'"),
        ("1 1 inf\n1 1 -inf\n2 2 1e400\n", 3,
         "entry (1, 1) has the non-finite value 'inf'"),
    ], ids=["overflow", "negative_overflow", "nan", "inf"])
    def test_nonfinite_value_or_sum_names_its_line(self, tmp_path, field,
                                                  body, line, message):
        # one DataError naming the line, and no numpy warning before it
        path = tmp_path / "m.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate {field} general"
                        f"\n2 2 3\n{body}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                gio.read_matrix(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize("field", ["real", "integer"])
    def test_first_of_two_faults_is_named(self, tmp_path, field):
        # a non-finite value on line 3 and an index outside the matrix on
        # line 4: the first bad line in file order wins
        path = tmp_path / "m.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate {field} general"
                        "\n2 2 2\n1 1 inf\n3 1 1\n")
        with pytest.raises(DataError) as err:
            gio.read_matrix(path)
        assert str(err.value) == (
            f"{path}:3: entry (1, 1) has the non-finite value 'inf'")

    def test_negative_count_under_poisson_names_cell(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 1 -2\n")
        loaded = gio.read_matrix(path)
        with pytest.raises(DataError, match="row 1, column 1"):
            g.check_data_matrix(loaded.values, g.poisson())

    @pytest.mark.parametrize("body", ["", "% only a comment\n", "\n  \n"],
                             ids=["empty", "comment", "blank"])
    def test_no_entries_read_as_zeros_without_warning(self, tmp_path, body):
        # recorded, not raised: the reader's own filters must hide the
        # warnings of both its parses, which an integer banner runs
        for field in ("real", "integer"):
            path = tmp_path / f"{field}.mtx"
            path.write_text(f"%%MatrixMarket matrix coordinate {field} "
                            "general\n2 3 0\n" + body)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = gio.read_matrix(path)
            assert caught == []
            np.testing.assert_array_equal(loaded.values, np.zeros((2, 3)))

    @pytest.mark.parametrize("size", ["1 1", "1 3", "3 1"])
    def test_one_entry_keeps_two_dimensions(self, tmp_path, size):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"{size} 1\n1 1 7\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = gio.read_matrix(path).values
        expected = np.zeros(tuple(int(n) for n in size.split()))
        expected[0, 0] = 7.0
        np.testing.assert_array_equal(values, expected)

    def test_first_bad_line_beats_entry_count(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 1 1\n2 2 1\n2 9 1\n")
        with pytest.raises(DataError,
                           match=r"m\.mtx:5: entry \(2, 9\) outside"):
            gio.read_matrix(path)

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "1.5"])
    def test_unparsed_numbers_and_fractional_index_are_malformed(
            self, tmp_path, token):
        # int() and float() take underscores and non-ASCII digits, but
        # the reader takes numbers as np.loadtxt parses them; an index
        # must be whole
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"2 2 2\n1 1 1\n{token} 2 {token}\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"m\.mtx:4: malformed entry"):
            gio.read_matrix(path)

    def test_trailing_comment_and_whole_float_index_accepted(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 4 % a note\n2.0 2e0 1\n")
        np.testing.assert_array_equal(gio.read_matrix(path).values,
                                      [[4.0, 0.0], [0.0, 1.0]])

    def test_sparse_read_allocates_one_dense_array(self, tmp_path):
        # summing with np.bincount(..., minlength=rows * cols) would make
        # a second dense array, and a MemoryError on a huge sparse input
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1000 1000 3\n1 1 1\n500 500 2\n1000 1000 3\n")
        tracemalloc.start()
        try:
            values = gio.read_matrix(path).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.sum() == 6.0
        assert peak < 1.5 * values.nbytes


class TestIntegerParse:
    """The body of an ``integer`` file is parsed first as int64.  When
    it holds any other number, that parse fails and the body is parsed
    again as floats, to the same array and the same errors.  A ``real``
    body is parsed as floats only.  Each parse is given the file's path
    and the header lines to skip, unless numpy would decompress a file
    of that name."""

    HEADER = "%%MatrixMarket matrix coordinate integer general\n"

    @pytest.mark.parametrize("header, body, dtypes", [
        (HEADER, "2 3 2\n1 1 4 % note\n2 3 -1\n", [np.int64]),
        (HEADER, "2 3 2\n1 1 4.0\n2 3 -1\n", [np.int64, float]),
        (HEADER, "2 3 2\n1 1 4\n2.0 3 -1\n", [np.int64, float]),
        (HEADER, "2 3 2\n1 1 4\n2 3 -1e0\n", [np.int64, float]),
        (HEADER.replace("integer", "real"), "2 3 2\n1 1 4\n2 3 -1\n",
         [float]),
        (HEADER + "% a comment\n\n  \n", "2 3 2\n1 1 4\n2 3 -1\n",
         [np.int64]),
        (HEADER + "%\n", "2 3 3\n1 1 4\n2 3 -1.5e0\n2 3 0.5\n",
         [np.int64, float]),
        (HEADER, "2 3 0\n", [np.int64]),
    ], ids=["integer", "real_value", "float_index", "exponent_value",
            "real_banner", "header_comments", "header_comment_real",
            "empty"])
    def test_loadtxt_calls_by_body(self, tmp_path, monkeypatch, header,
                                   body, dtypes):
        # an integer body that fell back silently, or a body handed to
        # numpy as a file object or lines, which it reads through Python
        # and not in its C chunk reader, would only show as lost speed
        loadtxt = np.loadtxt
        seen = []

        def spy(source, *args, **kwargs):
            seen.append((kwargs.get("dtype", float), source,
                         kwargs.get("skiprows")))
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(gio.np, "loadtxt", spy)
        path = tmp_path / "m.mtx"
        path.write_text(header + body)
        values = gio.read_matrix(path).values
        assert [dtype for dtype, _, _ in seen] == dtypes
        size_line = header.count("\n") + 1
        for _, source, skiprows in seen:
            assert isinstance(source, (str, os.PathLike))
            assert Path(source) == path
            assert skiprows == size_line
        empty = body == "2 3 0\n"
        want = np.zeros((2, 3)) if empty else [[4, 0, 0], [0, 0, -1]]
        np.testing.assert_array_equal(values, want)

    @pytest.mark.parametrize("field", ["integer", "real"])
    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma",
                                        ".GZ"])
    def test_names_numpy_would_decompress_read_as_text(self, tmp_path,
                                                       field, suffix):
        # numpy decompresses a path by its suffix; the reader reads
        # every file as the plain text it sniffed the banner from
        text = (self.HEADER.replace("integer", field)
                + "% note\n3 2 3\n1 1 4\n3 2 -1\n1 1 2 % twice\n")
        (tmp_path / "m.mtx").write_text(text)
        (tmp_path / f"m.mtx{suffix}").write_text(text)
        expected = gio.read_matrix(tmp_path / "m.mtx").values
        np.testing.assert_array_equal(expected, [[6, 0], [0, 0], [0, -1]])
        np.testing.assert_array_equal(
            gio.read_matrix(tmp_path / f"m.mtx{suffix}").values, expected)

    def test_bad_body_under_a_compression_suffix_names_its_line(
            self, tmp_path):
        path = tmp_path / "m.mtx.gz"
        path.write_text(self.HEADER + "2 2 2\n1 1 4\n2 x 1\n")
        with pytest.raises(DataError) as error:
            gio.read_matrix(path)
        assert str(error.value) == f"{path}:4: malformed entry '2 x 1'"

    @pytest.mark.parametrize("value", [2**53 + 1, 2**53 + 3, 10**18 + 1,
                                       2**63 - 1, 1 - 2**63])
    def test_large_integer_value_rounds_as_the_float_parse(self, tmp_path,
                                                           value):
        path = tmp_path / "m.mtx"
        path.write_text(self.HEADER + f"1 2 1\n1 1 {value}\n")
        expected = np.loadtxt([str(value)], dtype=float)
        assert int(expected) != value  # not a double: the parse rounds
        assert gio.read_matrix(path).values[0, 0] == expected

    @pytest.mark.parametrize("entries", ["1 1\n2 2\n", "1 1 4 7\n2 2 1 1\n"],
                             ids=["two_columns", "four_columns"])
    def test_integer_entries_of_one_wrong_width_are_rejected(self, tmp_path,
                                                             entries):
        path = tmp_path / "m.mtx"
        path.write_text(self.HEADER + "2 2 2\n" + entries)
        with pytest.raises(DataError) as error:
            gio.read_matrix(path)
        assert str(error.value) == f"{path}:3: expected 'row col value' entry"

    def test_index_past_int64_raises_the_float_parse_error(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(self.HEADER + f"2 2 1\n{2**64} 1 5\n")
        with pytest.raises(DataError) as error:
            gio.read_matrix(path)
        assert str(error.value) == (
            f"{path}:3: entry ({2**64}, 1) outside 2 x 2 matrix")


@st.composite
def mtx_lines(draw):
    """(rows, cols, entry lines, header lines) of a valid MatrixMarket
    file: random shape, duplicate coordinates, tab and space separators.
    Half the bodies are all integers, which the reader parses as int64
    under an ``integer`` banner; the others mix values in integer, repr
    and exponent form with indices in float form, which send an
    ``integer`` body to the float parse."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = draw(st.integers(0, 12))
    coords = draw(st.lists(st.tuples(st.integers(1, rows),
                                     st.integers(1, cols)),
                           min_size=n, max_size=n))
    integral = draw(st.booleans())
    entries = []
    for r, c in coords:
        v = draw(st.floats(-1e6, 1e6, allow_nan=False))
        if integral:
            row, col, text = str(r), str(c), str(int(v))
        else:
            row, col = (draw(st.sampled_from([str(k), f"{k}.0", f"{k}e0"]))
                        for k in (r, c))
            text = draw(st.sampled_from([repr(v), f"{v:.6e}", f"{v:E}",
                                         str(int(v))]))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        entries.append(f"{lead}{row}{sep}{col}{sep}{text}")
    field = draw(st.sampled_from(["real", "integer"]))
    # str.splitlines would also split a line at \x0c, \x85 or \u2028;
    # the header loop and np.loadtxt's skiprows count lines alike only
    # if neither does
    header = [f"%%MatrixMarket matrix coordinate {field} general",
              *draw(st.lists(st.sampled_from(
                  ["% a comment", "", "% form\x0cfeed", "% next\x85line",
                   "% line\u2028separator"]), max_size=3))]
    return rows, cols, entries, header


def join_mtx(draw, header, size, entries):
    """Header, size line and entries with comment and blank lines drawn
    between the entries, joined by LF, CRLF or lone CR line ends."""
    lines = [*header, size]
    for entry in entries:
        lines += draw(st.lists(st.sampled_from(
            ["% between", "%", "  % indented", "", "   ", "\t"]),
            max_size=2))
        lines.append(entry)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline


@st.composite
def valid_mtx(draw):
    rows, cols, entries, header = draw(mtx_lines())
    return join_mtx(draw, header, f"{rows} {cols} {len(entries)}", entries)


@st.composite
def corrupted_mtx(draw):
    """A file with one entry line corrupted, or none and a wrong entry
    count; the declared count may also be off by one."""
    rows, cols, entries, header = draw(mtx_lines())
    kind = draw(st.sampled_from(
        ["none", "token", "two", "four", "range", "half"]
        if entries else ["none"]))
    deltas = [-1, 1] if kind == "none" else [-1, 0, 1]
    delta = draw(st.sampled_from([d for d in deltas if len(entries) + d >= 0]))
    if kind != "none":
        k = draw(st.integers(0, len(entries) - 1))
        tokens = entries[k].split()
        slot = draw(st.integers(0, 2 if kind == "token" else 1))
        if kind == "token":
            tokens[slot] = draw(st.sampled_from(
                ["x", "1q", "--1", "1..5", "0x10", "1e", "+-2", "1,5"]))
        elif kind == "two":
            tokens = tokens[:2]
        elif kind == "four":
            tokens.append("1")
        elif kind == "range":
            limit = (rows, cols)[slot]
            tokens[slot] = str(draw(st.sampled_from(
                [0, -1, limit + 1, limit + 7])))
        else:
            tokens[slot] = "1.5"
        entries[k] = " ".join(tokens)
    return join_mtx(draw, header, f"{rows} {cols} {len(entries) + delta}",
                    entries)


class TestFormatFromBanner:
    """read_matrix picks the reader by the file's first line, never by
    its name."""

    @pytest.mark.parametrize("name", ["m.mtx", "m.txt", "m"])
    def test_banner_reads_matrix_market_under_any_name(self, tmp_path,
                                                       name):
        path = tmp_path / name
        path.write_bytes(FIXTURE.read_bytes())
        loaded = gio.read_matrix(path)
        assert loaded.format == "matrixmarket"
        np.testing.assert_array_equal(loaded.values,
                                      gio.read_matrix(FIXTURE).values)

    @pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"],
                             ids=["plain", "byte_order_mark"])
    def test_lower_case_banner_detected(self, tmp_path, prefix):
        path = tmp_path / "m.csv"
        path.write_bytes(prefix + b"%%matrixmarket matrix coordinate real "
                         b"general\n2 2 1\n2 1 5\n")
        loaded = gio.read_matrix(path)
        assert loaded.format == "matrixmarket"
        np.testing.assert_array_equal(loaded.values, [[0.0, 0.0], [5.0, 0.0]])

    def test_csv_named_mtx_reads_as_csv(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("id,s1,s2\ngeneA,1,2\ngeneB,3,4\n")
        loaded = gio.read_matrix(path)
        assert loaded.format == "csv"
        np.testing.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])
        assert loaded.row_names == ["geneA", "geneB"]


class TestReaderMatchesLineReader:
    """The np.loadtxt reader against the line-by-line reference loop."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=valid_mtx())
    def test_valid_files_read_equal(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = gio.read_matrix(path).values
        assert np.array_equal(values, oracle.read_matrix_market_lines(path))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=corrupted_mtx())
    def test_bad_files_raise_the_same_error(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_bytes(text.encode())
        with pytest.raises(DataError) as expected:
            oracle.read_matrix_market_lines(path)
        with pytest.raises(DataError) as actual:
            gio.read_matrix(path)
        assert str(actual.value) == str(expected.value)


class TestCsvReader:
    def test_plain_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("3,0\n0,4\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[3.0, 0.0], [0.0, 4.0]])
        assert loaded.row_names is None and loaded.col_names is None

    def test_header_and_row_names_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,s1,s2\ngeneA,1,2\ngeneB,3,4\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])
        assert loaded.row_names == ["geneA", "geneB"]
        assert loaded.col_names == ["s1", "s2"]

    def test_empty_corner_cell_marks_numeric_row_names(self, tmp_path):
        # pandas.DataFrame.to_csv and R's write.csv leave the corner empty
        path = tmp_path / "m.csv"
        path.write_text(",o1,o2,o3\n0,5,3,1\n1,2,0,4\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[5, 3, 1], [2, 0, 4]])
        assert loaded.row_names == ["0", "1"]
        assert loaded.col_names == ["o1", "o2", "o3"]

    def test_empty_corner_cell_marks_a_numeric_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",1,2\na,3,4\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[3, 4]])
        assert loaded.row_names == ["a"]
        assert loaded.col_names == ["1", "2"]

    @pytest.mark.parametrize("text, line", [("1,,3\n4,5,6\n", 1),
                                            ("1,2,3\n4,,6\n", 2)],
                             ids=["first_row", "second_row"])
    def test_empty_cell_off_the_corner_is_a_missing_value(self, tmp_path,
                                                          text, line):
        # an empty cell marks a header only in the top-left corner, so a
        # gap in the first row is no header and keeps its data row
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(
                f"m.csv:{line}: non-numeric value ''")):
            gio.read_matrix(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes("\ufeff1,2,3\n4,5,6\n".encode("utf-8"))
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[1, 2, 3], [4, 5, 6]])
        assert loaded.row_names is None and loaded.col_names is None

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataError, match=r":2:"):
            gio.read_matrix(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(DataError, match="oops"):
            gio.read_matrix(path)

    @pytest.mark.parametrize("text, row_names, col_names, values", [
        ("gene,c1,c2\n1_1,5,0\n2_1,0,3\n", ["1_1", "2_1"], ["c1", "c2"],
         [[5, 0], [0, 3]]),
        ("1_1,\u0664\n5,0\n", None, ["1_1", "\u0664"], [[5, 0]]),
    ], ids=["row_names", "header"])
    def test_names_are_numbers_only_as_loadtxt_parses_them(
            self, tmp_path, text, row_names, col_names, values):
        # float() takes underscores and non-ASCII digits; the reader takes
        # numbers as the MatrixMarket reader does, so these are names
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, values)
        assert loaded.row_names == row_names
        assert loaded.col_names == col_names

    @pytest.mark.parametrize("cell", ["1_0", "\u0664"])
    def test_cell_unparsed_by_loadtxt_is_non_numeric(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"1,2\n3,{cell}\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"m.csv:2: non-numeric value {cell!r}")):
            gio.read_matrix(path)

    @pytest.mark.parametrize("row, message", [
        ("geneB,3,oops", "non-numeric value 'oops'"),
        ("geneB,3", "expected 2 values, got 1"),
    ], ids=["cell", "ragged"])
    def test_errors_name_file_lines_after_a_multiline_name(
            self, tmp_path, row, message):
        # the quoted name spans lines 2 and 3, so the bad row is line 4
        path = tmp_path / "m.csv"
        path.write_text(f'id,s1,s2\n"gene\nA",1,2\n{row}\n')
        with pytest.raises(DataError, match=re.escape(f"m.csv:4: {message}")):
            gio.read_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            gio.read_matrix(path)

    @pytest.mark.parametrize("text, message", [
        ("id,s1,s2\n", r"m\.csv: no data rows"),
        ("id\ngeneA\ngeneB\n", r"m\.csv: no data columns"),
        ("a,b,c\n1,2\n", r"m\.csv: header has 3 names for 2 columns"),
    ], ids=["header_only", "row_names_only", "header_too_wide"])
    def test_layout_errors(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            gio.read_matrix(path)

    def test_non_utf8_byte_names_path(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(DataError,
                           match=r"m\.csv: not UTF-8 text \(invalid start "
                                 r"byte 0xff\)"):
            gio.read_matrix(path)

    def test_write_read_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-8, 8, (5, 4))
        path = tmp_path / "m.csv"
        gio._write_csv(path, values, [f"r{i}" for i in range(5)],
                       [f"c{j}" for j in range(4)])
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, values)


class TestWriteResult:
    def test_file_set_and_shapes(self, tmp_path):
        result = make_result(n_obs=2, n_feat=3, n_latent=1)
        gio.write_result(result, tmp_path)
        factors = (tmp_path / "factors.csv").read_text().splitlines()
        assert factors[0] == ",dim1"
        assert len(factors) == 3  # header + 2 data rows
        assert len(factors[1].split(",")) == 2  # name + 1 value column
        assert not (tmp_path / "coef_Gamma.csv").exists()
        for name in ("loadings.csv", "coef_A.csv", "offset.csv",
                     "trace.csv", "meta.json"):
            assert (tmp_path / name).exists()

    def test_coef_gamma_written_when_present(self, tmp_path):
        result = make_result(n_feat_cov=2)
        gio.write_result(result, tmp_path)
        lines = (tmp_path / "coef_Gamma.csv").read_text().splitlines()
        assert lines[0] == ",z1,z2"
        assert len(lines) == 5

    def test_trace_rows_and_monotone_column(self, tmp_path):
        result = make_result()
        gio.write_result(result, tmp_path)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,Q"
        assert len(lines) == 1 + len(result.trace)
        qs = [float(line.split(",")[1]) for line in lines[1:]]
        assert qs == sorted(qs)

    def test_meta_round_trips_through_json(self, tmp_path):
        result = make_result()
        gio.write_result(result, tmp_path, config={"family": "poisson"})
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["converged"] is True
        assert meta["stop_reason"] == "tol"
        assert meta["iterations_run"] == 3
        assert meta["objective"] == "partial"
        assert meta["config"]["family"] == "poisson"

    def test_custom_names_carried_through(self, tmp_path):
        result = make_result(n_obs=2, n_feat=3, n_latent=1)
        gio.write_result(result, tmp_path, row_names=["g1", "g2", "g3"],
                         col_names=["s1", "s2"])
        loadings = (tmp_path / "loadings.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in loadings[1:]] == \
            ["g1", "g2", "g3"]
        factors = (tmp_path / "factors.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in factors[1:]] == ["s1", "s2"]

    @pytest.mark.parametrize("names, message", [
        ({"row_names": ["a", "b", "c"]}, "row_names has 3 names, expected 12"),
        ({"col_names": ["s1"]}, "col_names has 1 names, expected 20"),
    ], ids=["row_names", "col_names"])
    def test_name_count_mismatch_writes_nothing(self, tmp_path, names,
                                                message):
        result = make_result(n_obs=20, n_feat=12)
        out = tmp_path / "o"
        with pytest.raises(g.ConfigError, match=re.escape(message)):
            gio.write_result(result, out, **names)
        assert not out.exists()

    def test_names_with_commas_and_quotes_round_trip(self, tmp_path):
        result = make_result(n_obs=2, n_feat=3, n_latent=1)
        names = ["g0,x", 'say "hi"', "g2"]
        gio.write_result(result, tmp_path, row_names=names,
                         col_names=["s,1", "s2"])
        loadings = gio.read_matrix(tmp_path / "loadings.csv")
        assert loadings.row_names == names
        np.testing.assert_array_equal(loadings.values, result.loadings)
        factors = gio.read_matrix(tmp_path / "factors.csv")
        assert factors.row_names == ["s,1", "s2"]

    def test_csv_bytes_match_per_value_format(self, tmp_path):
        # every value as format(float(x), ".17g"), names quoted by csv
        factors = np.array([[0.1, 1e-300], [-0.0, 2.0**53 + 1]])
        loadings = np.array([[1 / 3, -2.5e308], [5e-324, 7.0], [-1.0, 0.0]])
        result = FitResult(
            factors=factors, loadings=loadings,
            coef_A=loadings[:, :1], coef_Gamma=factors,
            offset=np.array([0.1, -0.0]), trace=[(1, -0.1)],
            converged=True, stop_reason="tol", iterations_run=1,
            final_q=-0.1)
        obs = {"1": "1", 'say "hi"': '"say ""hi"""'}
        feat = {"7": "7", "2.5": "2.5", "a,b": '"a,b"'}
        gio.write_result(result, tmp_path, row_names=list(feat),
                         col_names=list(obs))
        for name, values, names, header in [
                ("factors.csv", factors, obs, ",dim1,dim2"),
                ("loadings.csv", loadings, feat, ",dim1,dim2"),
                ("coef_A.csv", loadings[:, :1], feat, ",x1"),
                ("coef_Gamma.csv", factors, obs, ",z1,z2"),
                ("offset.csv", [[0.1], [-0.0]], obs, ",offset")]:
            lines = [header] + [
                ",".join([quoted, *(format(float(x), ".17g") for x in row)])
                for quoted, row in zip(names.values(), values)]
            assert (tmp_path / name).read_bytes() == \
                "".join(line + "\n" for line in lines).encode()
        assert (tmp_path / "trace.csv").read_bytes() == \
            f"iteration,Q\n1,{format(-0.1, '.17g')}\n".encode()


CSV_OUTPUTS = ("factors.csv", "loadings.csv", "coef_A.csv", "offset.csv",
               "trace.csv")


class TestCli:
    def run(self, *args):
        return run_cli(list(args))

    def test_documented_invocation_is_deterministic(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = self.run("fit", "--input", str(FIXTURE),
                            "--family", "poisson", "--dims", "2",
                            "--output-dir", str(out))
            assert code == 0
            outs.append(out)
        for name in CSV_OUTPUTS:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()

    def test_missing_dispersion_exits_1_naming_flag(self, tmp_path, capsys):
        code = self.run("fit", "--input", str(FIXTURE),
                        "--family", "negative_binomial", "--dims", "2",
                        "--output-dir", str(tmp_path))
        assert code == 1
        assert "--dispersion" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--dispersion", "2"], "dispersion is only valid for the "
         "negative_binomial kind, got 2.0 for 'poisson'"),
        (["--offset", "bogus"], "--offset must be 'none', 'auto', or "
         "'file:PATH', got 'bogus'"),
        (["--offset", "file:{short_offset}"],
         "offset must have length 20, got (19,)"),
        (["--input", "{latin1_mtx}"], "latin1.mtx: not UTF-8 text"),
        (["--input", "{latin1_csv}"], "latin1.csv: not UTF-8 text"),
        (["--tol", "inf"], "tol must be a positive finite scalar, got inf"),
        (["--format", "csv"], "unrecognized arguments: --format csv"),
        (["--seed", "7"], "unrecognized arguments: --seed 7"),
        (["--input", "{overflow_mtx}"],
         "overflow.mtx:5: entry (1, 1) sums past the largest double"),
        (["--input", "{huge_mtx}"],
         "huge.mtx:5: entry (1, 3) has the non-finite value '1e400'"),
    ], ids=["dispersion_without_nb", "unknown_offset",
            "short_offset_file", "non_utf8_mtx", "non_utf8_csv",
            "infinite_tol", "format_flag", "seed_flag",
            "duplicates_overflow", "infinite_value"])
    def test_bad_input_exits_1_with_one_error_line(self, tmp_path, capsys,
                                                   args, message):
        files = {"short_offset": tmp_path / "offset.csv",
                 "latin1_mtx": tmp_path / "latin1.mtx",
                 "latin1_csv": tmp_path / "latin1.csv",
                 "overflow_mtx": tmp_path / "overflow.mtx",
                 "huge_mtx": tmp_path / "huge.mtx"}
        files["short_offset"].write_text(",".join(["0"] * 19) + "\n")
        files["latin1_mtx"].write_bytes(FIXTURE.read_bytes() + b"% \xff\n")
        files["latin1_csv"].write_bytes(b"1,2,3\n4,5,\xff\n")
        banner = "%%MatrixMarket matrix coordinate real general\n"
        files["overflow_mtx"].write_text(
            banner + "2 3 3\n1 1 1e308\n2 2 1\n1 1 1e308\n")
        files["huge_mtx"].write_text(
            banner + "% a comment line\n2 3 2\n2 2 1\n1 3 1e400\n")
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(FIXTURE), "--family",
                        "poisson", "--dims", "1", "--output-dir", str(out),
                        *(arg.format(**files) for arg in args))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_negative_count_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "3 3 1\n1 1 -2\n")
        code = self.run("fit", "--input", str(bad), "--family", "poisson",
                        "--dims", "1", "--output-dir", str(tmp_path / "o"))
        assert code == 1
        assert "row 1, column 1" in capsys.readouterr().err

    def test_impossible_size_exits_1(self, tmp_path, capsys):
        huge = tmp_path / "huge.mtx"
        huge.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "100000000 100000000 0\n")
        code = self.run("fit", "--input", str(huge), "--family", "poisson",
                        "--dims", "1", "--output-dir", str(tmp_path / "o"))
        assert code == 1
        assert "huge.mtx:2: cannot hold" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = self.run("fit", "--input", str(tmp_path / "nope.mtx"),
                        "--family", "poisson", "--dims", "1",
                        "--output-dir", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err

    def test_non_convergence_exits_2_with_outputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(FIXTURE), "--family",
                        "poisson", "--dims", "2", "--max-iters", "1",
                        "--tol", "1e-12",
                        "--output-dir", str(out))
        assert code == 2
        for name in CSV_OUTPUTS + ("meta.json",):
            assert (out / name).exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["converged"] is False
        assert meta["stop_reason"] == "max_iters"

    def test_stalled_fit_exits_2_naming_the_stall(self, tmp_path, capsys,
                                                  monkeypatch):
        # from a zero intercept and without halvings the first sweep on
        # these counts lowers Q, so the fit stalls at once
        monkeypatch.setattr(optimizer, "MAX_HALVINGS", 0)
        real_build = cli.build_model

        def zero_intercept_build(*args, **kwargs):
            state = real_build(*args, **kwargs)
            state.V[:, 0] = 0.0
            return state

        monkeypatch.setattr(cli, "build_model", zero_intercept_build)
        data = tmp_path / "counts.csv"
        Y = np.random.default_rng(0).poisson(5.0, size=(40, 30))
        np.savetxt(data, Y, fmt="%d", delimiter=",")
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(data), "--family", "poisson",
                        "--dims", "2", "--output-dir", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "stalled at iteration 1" in err
        assert "even after 0 step halvings" in err
        assert "did not converge within" not in err
        meta = json.loads((out / "meta.json").read_text())
        assert meta["converged"] is False
        assert meta["stop_reason"] == "stalled"

    @pytest.mark.parametrize("scale, penalty", [(1.0, "100"),
                                                (1e160, "1e-4")],
                             ids=["ridge", "huge_counts"])
    def test_dropped_start_exits_0(self, tmp_path, capsys, scale, penalty):
        # a start that every halving rejects (these counts under a ridge
        # of 100) and one that cannot be taken (counts of about 1e160,
        # whose sketch overflows): sweep 1 runs without it, and the fit
        # converges
        data = tmp_path / "counts.csv"
        Y = np.random.default_rng(0).poisson(5.0, size=(6, 8)) * scale
        np.savetxt(data, Y, fmt="%.17g", delimiter=",")
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(data), "--family", "poisson",
                        "--dims", "1", "--penalty", penalty,
                        "--output-dir", str(out))
        err = capsys.readouterr().err
        assert code == 0 and "Traceback" not in err
        meta = json.loads((out / "meta.json").read_text())
        assert meta["converged"] is True
        assert meta["warnings"][0] == "residual start dropped"

    def test_negative_binomial_run(self, tmp_path):
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(FIXTURE),
                        "--family", "negative_binomial",
                        "--dispersion", "2.0", "--dims", "1",
                        "--output-dir", str(out))
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["dispersion"] == 2.0
        assert "full_scoring_coef" not in meta["config"]

    def test_meta_config_echoes_every_flag_resolved(self, tmp_path):
        out = tmp_path / "o"
        self.run("fit", "--input", str(FIXTURE), "--family", "poisson",
                 "--dims", "2", "--max-iters", "2",
                 "--output-dir", str(out))
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"] == {
            "input_path": str(FIXTURE), "input_format": "matrixmarket",
            "family": "poisson", "dispersion": None,
            "dims": 2, "obs_covariates": None, "feat_covariates": None,
            "offset": "none", "intercept": True, "penalty": 1e-4,
            "max_iters": 2, "tol": 1e-6, "output_dir": str(out)}

    def test_readme_flag_table_matches_parser(self):
        # the first column of README's flag table names every fit flag
        lines = (Path(__file__).parents[1] / "README.md").read_text() \
            .splitlines()
        start = lines.index("| flag | meaning | default |") + 2
        documented = set()
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            documented |= set(re.findall(r"--[a-z][a-z-]*",
                                         line.split("|")[1]))
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {opt for action in sub.choices["fit"]._actions
                   for opt in action.option_strings} - {"-h", "--help"}
        assert documented == options

    def test_readme_quickstart_runs_as_documented(self):
        # the python block under "Library quickstart" runs, and its
        # comments hold: the shapes, orthogonal factors in decreasing
        # norm, orthonormal loadings and a non-decreasing trace
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Library quickstart", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        namespace = {}
        exec(code, namespace)
        result = namespace["result"]
        shapes = re.findall(r"^result\.(\w+) +# \((\d+), (\d+)\)", code,
                            re.M)
        assert [name for name, _, _ in shapes] == \
            ["factors", "loadings", "coef_A"]
        for name, rows, cols in shapes:
            assert getattr(result, name).shape == (int(rows), int(cols))
        n_latent = result.loadings.shape[1]
        np.testing.assert_allclose(result.loadings.T @ result.loadings,
                                   np.eye(n_latent), rtol=0, atol=1e-10)
        gram = result.factors.T @ result.factors
        off_diagonal = gram - np.diag(np.diag(gram))
        assert np.abs(off_diagonal).max() <= 1e-10 * np.diag(gram).min()
        assert np.all(np.diff(np.diag(gram)) <= 0)
        qs = [q for _, q in result.trace]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_pandas_style_csv_fits_three_observations(self, tmp_path):
        rng = np.random.default_rng(4)
        counts = rng.poisson(3.0, size=(8, 3))
        path = tmp_path / "counts.csv"
        path.write_text(",o1,o2,o3\n" + "".join(
            f"{j},{a},{b},{c}\n" for j, (a, b, c) in enumerate(counts)))
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(path), "--family", "poisson",
                        "--dims", "1", "--output-dir", str(out))
        assert code in (0, 2)
        factors = gio.read_matrix(out / "factors.csv")
        assert factors.row_names == ["o1", "o2", "o3"]
        loadings = (out / "loadings.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in loadings[1:]] == \
            [str(j) for j in range(8)]

    @staticmethod
    def numeric_names_csv(tmp_path):
        """8 x 12 counts with pandas' default names: rows and columns
        are named 0, 1, ..."""
        counts = np.random.default_rng(12).poisson(3.0, size=(8, 12))
        path = tmp_path / "counts.csv"
        path.write_text("," + ",".join(str(i) for i in range(12)) + "\n"
                        + "".join(f"{j}," + ",".join(map(str, row)) + "\n"
                                  for j, row in enumerate(counts)))
        return path

    def test_numeric_row_names_read_back(self, tmp_path):
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(self.numeric_names_csv(tmp_path)),
                        "--family", "poisson", "--dims", "2",
                        "--output-dir", str(out))
        assert code in (0, 2)
        loadings = gio.read_matrix(out / "loadings.csv")
        assert loadings.values.shape == (8, 2)
        assert loadings.row_names == [str(j) for j in range(8)]
        assert loadings.col_names == ["dim1", "dim2"]

    def test_written_offset_passes_back_through_file(self, tmp_path):
        path = self.numeric_names_csv(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        args = ("fit", "--input", str(path), "--family", "poisson",
                "--dims", "2")
        assert self.run(*args, "--offset", "auto",
                        "--output-dir", str(first)) in (0, 2)
        code = self.run(*args, "--offset", f"file:{first / 'offset.csv'}",
                        "--output-dir", str(second))
        assert code in (0, 2)
        # the offset reads back exactly, so the second fit is the first
        for name in ("offset.csv", "factors.csv", "loadings.csv"):
            assert (second / name).read_text() == (first / name).read_text()

    def test_offset_file_of_wrong_shape_exits_1(self, tmp_path, capsys):
        # 12 values, but as a 6 x 2 matrix: reading it row by row would
        # interleave the offset, so it is refused
        offpath = tmp_path / "offset.csv"
        np.savetxt(offpath, np.arange(12.0).reshape(6, 2) / 10,
                   delimiter=",")
        out = tmp_path / "o"
        code = self.run("fit", "--input",
                        str(self.numeric_names_csv(tmp_path)),
                        "--family", "poisson", "--dims", "2",
                        "--offset", f"file:{offpath}",
                        "--output-dir", str(out))
        assert code == 1
        assert ("offset file must hold one row or one column of 12 values, "
                "got 6 x 2") in capsys.readouterr().err
        assert not out.exists()

    def test_offset_file_of_one_row(self, tmp_path):
        loaded = gio.read_matrix(FIXTURE)
        colsums = loaded.values.sum(axis=0)
        delta = np.log(colsums / colsums.mean())
        offpath = tmp_path / "offset.csv"
        offpath.write_text(",".join(format(d, ".17g") for d in delta) + "\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ("fit", "--input", str(FIXTURE), "--family", "poisson",
                "--dims", "1")
        assert self.run(*args, "--offset", "auto",
                        "--output-dir", str(out_a)) == 0
        assert self.run(*args, "--offset", f"file:{offpath}",
                        "--output-dir", str(out_b)) == 0
        for name in ("offset.csv", "factors.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_offset_auto_and_file_agree(self, tmp_path):
        loaded = gio.read_matrix(FIXTURE)
        colsums = loaded.values.sum(axis=0)
        delta = np.log(colsums / colsums.mean())
        offpath = tmp_path / "offset.csv"
        offpath.write_text("\n".join(format(d, ".17g") for d in delta) + "\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run("fit", "--input", str(FIXTURE), "--family",
                        "poisson", "--dims", "1", "--offset", "auto",
                        "--output-dir", str(out_a)) == 0
        assert self.run("fit", "--input", str(FIXTURE), "--family",
                        "poisson", "--dims", "1",
                        "--offset", f"file:{offpath}",
                        "--output-dir", str(out_b)) == 0
        assert (out_a / "factors.csv").read_bytes() == \
            (out_b / "factors.csv").read_bytes()

    def test_gaussian_no_intercept_reproduces_pca_fit(self, tmp_path):
        # the rotation step pins only the span of the loadings, so the
        # CLI output is compared to the PCA oracle at the level it
        # determines: the rank-3 reconstruction, orthonormality, ordering
        rng = np.random.default_rng(123)
        Y = rng.standard_normal((20, 40))
        Y -= Y.mean(axis=1, keepdims=True)  # pre-centered data
        path = tmp_path / "y.csv"
        with open(path, "w") as fh:
            for row in Y:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(path), "--family", "gaussian",
                        "--dims", "3", "--offset", "none", "--no-intercept",
                        "--penalty", "0", "--tol", "1e-12",
                        "--max-iters", "20000", "--output-dir", str(out))
        assert code == 0

        def read_block(name):
            lines = (out / name).read_text().splitlines()[1:]
            return np.array([[float(t) for t in line.split(",")[1:]]
                             for line in lines])

        fitted = read_block("factors.csv")
        loadings_fit = read_block("loadings.csv")
        import oracle
        scores, loadings = oracle.pca_reference(Y, 3)
        recon_fit = loadings_fit @ fitted.T
        recon_ref = loadings @ scores.T
        err = np.linalg.norm(recon_fit - recon_ref) / np.linalg.norm(recon_ref)
        assert err <= 1e-4
        np.testing.assert_allclose(loadings_fit.T @ loadings_fit, np.eye(3),
                                   rtol=0, atol=1e-10)
        norms = np.linalg.norm(fitted, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_covariate_files_flow_through(self, tmp_path):
        # a CSV and a MatrixMarket file, each named .csv: the banner,
        # not the name, picks the reader
        rng = np.random.default_rng(9)
        obs_cov = tmp_path / "xc.csv"
        obs_cov.write_text(
            "\n".join(format(v, ".17g") for v in rng.normal(size=20)) + "\n")
        feat_cov = tmp_path / "zc.csv"
        feat_cov.write_text(
            "%%MatrixMarket matrix coordinate real general\n10 1 10\n"
            + "".join(f"{j + 1} 1 {v:.17g}\n"
                      for j, v in enumerate(rng.normal(size=10))))
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(FIXTURE), "--family",
                        "poisson", "--dims", "1",
                        "--obs-covariates", str(obs_cov),
                        "--feat-covariates", str(feat_cov),
                        "--output-dir", str(out))
        assert code == 0
        coef_a = (out / "coef_A.csv").read_text().splitlines()
        assert coef_a[0] == ",x1,x2"  # intercept + supplied covariate
        assert len(coef_a) == 11
        coef_g = (out / "coef_Gamma.csv").read_text().splitlines()
        assert coef_g[0] == ",z1"
        assert len(coef_g) == 21

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "glmpca", "fit", "--input", str(FIXTURE),
             "--family", "poisson", "--dims", "1", "--output-dir", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "factors.csv").exists()

    def test_fit_process_never_imports_numpy_random(self, tmp_path):
        # the start is built without random numbers, so the CLI leaves
        # numpy.random unimported, where importing numpy alone does
        script = (
            "import json, runpy, sys\n"
            "import numpy\n"
            "by_numpy = 'numpy.random' in sys.modules\n"
            "sys.argv = ['glmpca'] + sys.argv[1:]\n"
            "try:\n"
            "    runpy.run_module('glmpca', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(json.dumps([code, by_numpy,\n"
            "                  'numpy.random' in sys.modules]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "fit", "--input", str(FIXTURE),
             "--family", "poisson", "--dims", "1",
             "--output-dir", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, by_numpy, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        if by_numpy:
            pytest.skip("this numpy imports numpy.random itself")
        assert not loaded

    def test_bad_flag_exits_1(self, capsys):
        assert self.run("fit", "--no-such-flag") == 1
        assert capsys.readouterr().err
