import warnings
from decimal import Decimal
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from fairsmooth import io, read_edge_list
from fairsmooth.errors import IndexOutOfRange, ParseError
from fairsmooth.io import (
    read_groups_csv,
    read_labels_csv,
    read_matrix_csv,
    read_pairs_tsv,
    read_table,
    write_matrix_csv,
)


def _read_weight_rows(path):
    """An 'index<TAB>weight' table read as ``smooth inductive`` reads ``--weights``."""
    return read_table(path, (np.int64, float), delimiter="\t", comments=True)[0]


class TestReadPairsTsv:
    def test_without_header(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("0\t1\t0.5\n2\t1\t1e-3\n")
        assert np.array_equal(read_pairs_tsv(path), [[0, 1, 0.5], [2, 1, 0.001]])

    def test_hash_lines_are_comments(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# i\tj\td\n0\t1\t0.5\n# more\n\n1\t2\t2.0\n")
        pairs = read_pairs_tsv(path)
        assert np.array_equal(pairs, [[0, 1, 0.5], [1, 2, 2.0]])
        assert pairs.shape == (2, 3) and pairs.dtype == float

    def test_one_row(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("3\t4\t0.25")
        assert np.array_equal(read_pairs_tsv(path), [[3, 4, 0.25]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# nothing yet\n")
        pairs = read_pairs_tsv(path)
        assert pairs.shape == (0, 3) and len(pairs) == 0

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


class TestReadGroupsCsv:
    def test_quoted_ids_whitespace_and_row_order(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text('row_index,group_id,is_original\n2, b ,1\n0,"a,b",1\n\n1,"a,b",0\n')
        group_of, is_original = read_groups_csv(path)
        assert group_of.tolist() == ["a,b", "a,b", "b"] and group_of.dtype.kind == "U"
        assert is_original.tolist() == [True, False, True]

    def test_without_header(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("0,g0,1\n1,g0,0\n")
        group_of, is_original = read_groups_csv(path)
        assert group_of.tolist() == ["g0", "g0"] and is_original.tolist() == [True, False]

    def test_duplicate_index_names_its_line(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("row_index,group_id,is_original\n0,a,1\n1,b,1\n0,c,1\n")
        with pytest.raises(ParseError, match=r":4: row index 0 names a row already named"):
            read_groups_csv(path)

    def test_gap_names_its_line(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("row_index,group_id,is_original\n0,a,1\n2,b,1\n")
        with pytest.raises(IndexOutOfRange, match=r":3: row index 2 is outside 0..1"):
            read_groups_csv(path)

    def test_flag_must_be_zero_or_one(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("row_index,group_id,is_original\n1,a,2\n0,a,1\n")
        with pytest.raises(ParseError, match="is_original of row 1 must be 0 or 1"):
            read_groups_csv(path)

    def test_bad_row_reports_its_line(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("row_index,group_id,is_original\n0,a,1\nx,b,1\n")
        with pytest.raises(ParseError, match=":3: could not parse"):
            read_groups_csv(path)
        path.write_text("0,a,1\n1,b\n")
        with pytest.raises(ParseError, match=":2: expected 3 columns, got 2"):
            read_groups_csv(path)

    def test_header_only_has_no_data(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text("row_index,group_id,is_original\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_groups_csv(path)


class TestReadLabelsCsv:
    def test_rows_in_index_order(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("ROW_INDEX,label\n1, 0\n0,1\n2,1\n")
        labels = read_labels_csv(path)
        assert labels.tolist() == [1, 0, 1] and labels.dtype == np.int64

    def test_duplicate_index_rejected(self, tmp_path):
        # the last row used to win
        path = tmp_path / "labels.csv"
        path.write_text("0,1\n1,0\n1,1\n")
        with pytest.raises(ParseError, match=r":3: row index 1 names a row already named"):
            read_labels_csv(path)

    @pytest.mark.parametrize("text", ["0,1\n2,0\n", "-1,1\n0,0\n"])
    def test_index_outside_rows_rejected(self, tmp_path, text):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(IndexOutOfRange, match="is outside 0..1"):
            read_labels_csv(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("row_index,label\n0,1\n1,0.5\n")
        with pytest.raises(ParseError, match=":3: could not parse"):
            read_labels_csv(path)


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
    def test_blank_first_line_is_no_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n1,2\n3,4\n")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

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
    def test_zero_columns(self, tmp_path):
        # an empty header line, then one empty line per row
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.zeros((3, 0)))
        assert path.read_text() == "\n\n\n\n"

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

    def test_vector_is_one_column(self, tmp_path):
        path = tmp_path / "v.csv"
        write_matrix_csv(path, np.array([0.1, 2.0]))
        assert path.read_text() == "c0\n0.10000000000000001\n2\n"


def _ties(rng, count):
    """Doubles whose exact decimal expansion has 18 significant digits ending
    in 5: odd / 2**j in [10**(17 - j), 10**(18 - j)), halfway between two
    17-digit decimals."""
    ties = []
    for j in range(2, 25):
        lo, hi = 10.0 ** (17 - j), min(10.0 ** (18 - j), 2.0 ** (53 - j))
        a, b = int(lo * 2**j) // 2 + 1, int(hi * 2**j) // 2 - 1
        if b > a:
            ties.append((rng.integers(a, b, count) * 2 + 1) / 2.0**j)
    return np.concatenate(ties)


def _midpoint_tokens(rng, count):
    """The midpoints between random adjacent doubles, cut to 16, 17 and 18 digits."""
    x = np.exp(rng.uniform(-500, 500, count))
    tokens = []
    for a, b in zip(x.tolist(), np.nextafter(x, np.inf).tolist()):
        middle = (Decimal(a) + Decimal(b)) / 2
        tokens += [format(middle, f".{digits - 1}e") for digits in (16, 17, 18)]
    return tokens


def _written(*columns, delimiter=","):
    buffer = StringIO()
    io.write_rows(buffer, delimiter, *columns)
    return buffer.getvalue()


def _read_floats(path, texts):
    path.write_text("".join(f"{k}\t{text}\n" for k, text in enumerate(texts)))
    return read_table(path, (np.int64, float), delimiter="\t")[0][1]


class TestFloatText:
    """Floats are written as '%.17g' writes them and read as float() reads them."""

    def test_powers_of_ten_and_neighbours(self):
        p = 10.0 ** np.arange(-323, 309)
        x = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p, [1e16, 1e17, 1e-5, 0.1]])
        assert _written(x) == "".join(f"{v:.17g}\n" for v in x)

    def test_seventeen_digit_ties_round_half_even(self):
        x = _ties(np.random.default_rng(13), 200)
        assert all(len(Decimal(v).as_tuple().digits) == 18 for v in x[::50].tolist())
        x = np.concatenate([x, -x])
        assert _written(x) == "".join(f"{v:.17g}\n" for v in x)

    def test_gaussian_weights_need_no_per_value_formatting(self, monkeypatch):
        # the bulk formatter certifies these; a silent fallback would be slow
        calls = []
        monkeypatch.setattr(io, "format_float", lambda v: calls.append(v) or io.FLOAT_FMT % v)
        w = np.exp(-np.random.default_rng(14).uniform(0.0, 30.0, 10_000) ** 2 / 9)
        assert _written(w) == "".join(f"{v:.17g}\n" for v in w)
        assert calls == []

    def test_mixed_row_format(self):
        # each column's dtype picks its text
        rng = np.random.default_rng(15)
        ints, words, x = rng.integers(-(10**12), 10**12, 50), ["a", "é", "g,h"] * 16 + ["", "z"], rng.normal(size=50)
        flags = rng.uniform(size=50) < 0.5
        ints[:3] = [0, -1, 9]
        expected = "".join("%d|%s|%.17g|%d\n" % row for row in zip(ints.tolist(), words, x.tolist(), flags.tolist()))
        assert _written(ints, words, x, flags, delimiter="|") == expected

    def test_reads_match_float(self, tmp_path):
        rng = np.random.default_rng(16)
        x = np.concatenate([rng.normal(size=2000), np.exp(rng.uniform(-700, 700, 2000)), _ties(rng, 20)])
        texts = [fmt % v for fmt in ("%.17g", "%.16g", "%r") for v in x.tolist()]
        texts += _midpoint_tokens(rng, 1000) + ["0", "-0", "9007199254740993", "5e-324", "1.7976931348623157e+308"]
        got = _read_floats(tmp_path / "t.tsv", texts)
        expected = np.array([float(t) for t in texts])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", [".5", "5.", "+1", "1E5", " 1.5", "inf", "-nan", "1e5", "00012.5"])
    def test_other_float_syntax_accepted(self, tmp_path, text):
        got = _read_floats(tmp_path / "t.tsv", ["0.25", text])
        assert got.tobytes() == np.array([0.25, float(text)]).tobytes()

    def test_long_token_read_exactly(self, tmp_path):
        text = "0.1000000000000000055511151231257827021181583404541015625"[:40]
        assert _read_floats(tmp_path / "t.tsv", [text, "1"]).tolist() == [float(text), 1.0]

    @pytest.mark.parametrize("text", ["1_0", "0x10", ""])
    def test_rejected_text_fails_as_before(self, tmp_path, text):
        # '1_0' parses in Python but not in np.loadtxt, whose error is passed on
        path = tmp_path / "t.tsv"
        path.write_text(f"0\t0.5\t1\n1\t{text}\t0.5\n")
        dtypes = (np.int64, float, float)
        with pytest.raises(ValueError) as numpy_error:
            np.loadtxt(path, dtype=[(f"c{k}", t) for k, t in enumerate(dtypes)], delimiter="\t", ndmin=1)
        with pytest.raises(ParseError) as error:
            read_table(path, dtypes, delimiter="\t")
        if text == "1_0":
            assert str(error.value) == f"{path}: {numpy_error.value}"
        else:
            assert str(error.value) == f"{path}:2: could not parse {f'1{chr(9)}{text}{chr(9)}0.5'!r}"


def test_float_text_rule_lives_only_in_io():
    # every other module writes floats through io.write_rows
    package = Path(io.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "io.py":
            text = path.read_text(encoding="utf-8")
            for name in ("%.17g", "FLOAT_FMT", "format_float"):
                assert name not in text, f"{path.name} names {name}"
