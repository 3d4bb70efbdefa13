import warnings

import numpy as np
import pytest

from fairsmooth import io, read_edge_list
from fairsmooth.cli import _read_weight_rows
from fairsmooth.errors import ParseError
from fairsmooth.io import read_matrix_csv, read_pairs_tsv, read_table, write_matrix_csv


class TestReadPairsTsv:
    def test_without_header(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("0\t1\t0.5\n2\t1\t1e-3\n")
        assert read_pairs_tsv(path) == [(0, 1, 0.5), (2, 1, 0.001)]

    def test_hash_lines_are_comments(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# i\tj\td\n0\t1\t0.5\n# more\n\n1\t2\t2.0\n")
        pairs = read_pairs_tsv(path)
        assert pairs == [(0, 1, 0.5), (1, 2, 2.0)]
        assert all(type(i) is int and type(j) is int and type(d) is float for i, j, d in pairs)

    def test_one_row(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("3\t4\t0.25")
        assert read_pairs_tsv(path) == [(3, 4, 0.25)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# nothing yet\n")
        assert read_pairs_tsv(path) == []

    def test_bad_row_reports_its_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# header\n0\t1\t0.5\n\n1\t2\n")
        with pytest.raises(ParseError, match=":4: expected 3 columns, got 2"):
            read_pairs_tsv(path)

    def test_non_integer_index_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("0\t1\t0.5\n1.5\t2\t0.5\n")
        with pytest.raises(ParseError, match=":2: could not parse"):
            read_pairs_tsv(path)


def _loadtxt_with_float_fallback(real):
    """np.loadtxt as numpy 1.23 to 1.26 have it: an integer field that only
    parses as a float is truncated, with a DeprecationWarning."""

    def loadtxt(fname, dtype=float, **options):
        names = getattr(np.dtype(dtype), "names", None)
        if not names:
            return real(fname, dtype=dtype, **options)
        table = real(fname, dtype=[(name, float) for name in names], **options)
        ints = [name for name in names if np.issubdtype(np.dtype(dtype)[name], np.integer)]
        if any(np.any(table[name] != np.trunc(table[name])) for name in ints):
            warnings.warn(
                "loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning
            )
        return table.astype(dtype)

    return loadtxt


@pytest.mark.parametrize(
    "read, text",
    [
        (read_pairs_tsv, "0\t1\t0.5\n0\t1.5\t0.5\n"),
        (read_edge_list, "# n=3\n0\t1.5\t0.5\n0\t2\t0.5\n"),
        (_read_weight_rows, "0\t0.5\n1.5\t0.5\n"),
    ],
)
def test_non_integer_index_rejected_where_numpy_only_warns(tmp_path, monkeypatch, read, text):
    path = tmp_path / "table.tsv"
    path.write_text(text)
    monkeypatch.setattr(np, "loadtxt", _loadtxt_with_float_fallback(np.loadtxt))
    with pytest.raises(ParseError, match=":2: could not parse"):
        read(path)


class TestReadMatrixCsv:
    def test_with_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n3.5,-4e-3\n")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.5, -0.004]])

    def test_without_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_one_row_keeps_two_dimensions(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("c0,c1,c2\n1,2,3\n")
        M = read_matrix_csv(path)
        assert M.shape == (1, 3)
        path.write_text("7\n")
        assert read_matrix_csv(path).shape == (1, 1)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("c0\n\n1\n  \n2\n\n")
        assert np.array_equal(read_matrix_csv(path), [[1.0], [2.0]])

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('"x","y"\n"1.5",2\n')
        assert np.array_equal(read_matrix_csv(path), [[1.5, 2.0]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("c0,c1\n1,2\n3,4\n5\n")
        with pytest.raises(ParseError, match=":4: expected 2 columns, got 1"):
            read_matrix_csv(path)

    def test_non_numeric_row_after_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("c0,c1\n1,2\nx,4\n")
        with pytest.raises(ParseError, match=":3: could not parse"):
            read_matrix_csv(path)

    def test_header_only_has_no_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("c0,c1\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_matrix_csv(path)


class TestReadTable:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_table(tmp_path / "absent.tsv", (np.int64, float), delimiter="\t")

    def test_line_of_row_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# a\n\n0\t1\n# b\n1\t2\n")
        assert io.line_of_row(path, 0, comments=True) == 3
        assert io.line_of_row(path, 1, comments=True) == 5

    def test_weight_rows(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("# index\tweight\n0\t0.5\n\n3\t1.25\n")
        idx, w = _read_weight_rows(path)
        assert np.array_equal(idx, [0, 3]) and idx.dtype == np.int64
        assert np.array_equal(w, [0.5, 1.25])

    def test_weight_rows_bad_line(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("0\t0.5\n1\t0.5\t2\n")
        with pytest.raises(ParseError, match=":2:"):
            _read_weight_rows(path)


class TestWriteMatrixCsv:
    def test_bytes_match_seventeen_digit_rows(self, tmp_path, monkeypatch):
        # a chunk of 3 rows forces partial and full chunks
        monkeypatch.setattr(io, "WRITE_CHUNK", 3)
        rng = np.random.default_rng(11)
        M = rng.normal(size=(10, 3)) * np.logspace(-320, 300, 10)[:, None]
        M[0, 0], M[1, 1], M[2, 2] = -0.0, np.inf, np.nan
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        expected = "c0,c1,c2\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in M
        )
        assert path.read_bytes() == expected.encode("utf-8")
        back = read_matrix_csv(path)
        assert np.array_equal(back, M, equal_nan=True)

    def test_vector_without_header(self, tmp_path):
        path = tmp_path / "v.csv"
        write_matrix_csv(path, np.array([0.1, 2.0]), header=False)
        assert path.read_text() == "0.10000000000000001\n2\n"
