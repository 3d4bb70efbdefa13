"""File formats: CSV matrices, TSV pair lists, groups and labels files.

Floats are serialized with 17 significant digits so that re-reading a file
reproduces the exact double-precision values.
"""

import csv
import json
import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParseError

FLOAT_FMT = "%.17g"

# rows per write: bounds the formatted text held at once
WRITE_CHUNK = 4096


def format_float(x: float) -> str:
    return FLOAT_FMT % x


def read_table(
    path, dtypes: Optional[Sequence] = None, *, delimiter: str, comments: bool = False, skiprows: int = 0
):
    """Parse a delimited numeric text file with numpy's C reader.

    Returns ``(data, comment_lines)``.  With ``dtypes`` (one per column)
    ``data`` is a list of 1-D column arrays, and integer columns reject text
    such as ``1.5``; without, it is a 2-D float array as wide as the first
    data row.  Blank lines are skipped.  With ``comments``, lines whose first
    non-blank character is '#' are skipped too and returned in
    ``comment_lines`` as ``(lineno, text)``; a '#' later in a line is an
    error.  A rejected file raises :class:`ParseError` naming its first bad
    line.
    """
    notes = _comment_lines(path) if comments else []
    structured = dtypes is not None
    dtype = np.dtype([(f"c{k}", t) for k, t in enumerate(dtypes)]) if structured else float
    options = dict(
        dtype=dtype,
        delimiter=delimiter,
        comments="#" if comments else None,
        quotechar='"' if delimiter == "," else None,
        ndmin=1 if structured else 2,
    )
    with warnings.catch_warnings():
        # a file without data rows is an empty table; callers decide if that is an error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy 1.23 to 1.26 parse '1.5' into an integer column as 1, with only
        # this warning; make it an error so every numpy rejects the line
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        try:
            table = np.loadtxt(path, skiprows=skiprows, **options)
        except (ValueError, DeprecationWarning) as exc:
            bad = _first_bad_line(path, dtypes, delimiter, comments, skiprows)
            if bad is not None:
                raise ParseError(bad) from None
            # every data line parses, so np.loadtxt stopped at a line of
            # spaces, which it does not take for blank: give it the data lines
            try:
                table = np.loadtxt(
                    (text for _, text in _data_lines(path, comments, skiprows)), **options
                )
            except (ValueError, DeprecationWarning):
                raise ParseError(f"{path}: {exc}") from None
    if structured:
        return [table[name] for name in dtype.names], notes
    return table, notes


def line_of_row(path, row: int, *, comments: bool = False, skiprows: int = 0) -> int:
    """Line number of data row ``row`` (0-based) of a file read by :func:`read_table`."""
    for k, (lineno, _) in enumerate(_data_lines(path, comments, skiprows)):
        if k == row:
            return lineno
    raise IndexError(row)


def _data_lines(path, comments, skiprows):
    """(lineno, stripped text) of each data line, for files np.loadtxt rejected
    and for naming a bad row; the fast path never loops over lines."""
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if lineno <= skiprows or not text or (comments and text.startswith("#")):
                continue
            yield lineno, text


def _first_bad_line(path, dtypes, delimiter, comments, skiprows) -> Optional[str]:
    kinds = None if dtypes is None else [int if np.issubdtype(t, np.integer) else float for t in dtypes]
    for lineno, text in _data_lines(path, comments, skiprows):
        fields = next(csv.reader([text])) if delimiter == "," else text.split(delimiter)
        if kinds is None:
            kinds = [float] * len(fields)
        if len(fields) != len(kinds):
            return f"{path}:{lineno}: expected {len(kinds)} columns, got {len(fields)}"
        try:
            for kind, value in zip(kinds, fields):
                kind(value)
        except ValueError:
            return f"{path}:{lineno}: could not parse {text!r}"
    return None


def _comment_lines(path) -> List[Tuple[int, str]]:
    """Lines whose first non-blank character is '#', found without a per-line loop.

    A '#' later in a line is not a comment: that line is rejected.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    notes = []
    lineno, counted = 1, 0
    pos = data.find(b"#")
    while pos >= 0:
        start = data.rfind(b"\n", 0, pos) + 1
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        lineno += data.count(b"\n", counted, start)
        counted = start
        text = data[start:end].decode("utf-8").strip()
        if not text.startswith("#"):
            raise ParseError(f"{path}:{lineno}: could not parse {text!r}")
        notes.append((lineno, text))
        pos = data.find(b"#", end)
    return notes


def write_rows(fh, row_format: str, *columns) -> None:
    """Write one ``row_format`` line per row of the parallel 1-D ``columns``."""
    width = len(columns)
    total = len(columns[0]) if columns else 0
    for start in range(0, total, WRITE_CHUNK):
        stop = min(start + WRITE_CHUNK, total)
        values = [None] * (width * (stop - start))
        for k, column in enumerate(columns):
            values[k::width] = column[start:stop].tolist()
        fh.write((row_format * (stop - start)) % tuple(values))


def read_matrix_csv(path) -> np.ndarray:
    """Read a CSV matrix; an optional non-numeric first row is a header."""
    M, _ = read_table(path, delimiter=",", skiprows=int(_has_header(path)))
    if M.shape[0] == 0:
        raise ParseError(f"{path}: no data rows")
    return M


def _has_header(path) -> bool:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
    if not first.strip():
        return False
    try:
        [float(v) for v in next(csv.reader([first]))]
    except ValueError:
        return True
    return False


def write_matrix_csv(path, M: np.ndarray, header: bool = True) -> None:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(f"c{k}" for k in range(M.shape[1])) + "\n")
        if M.shape[1] == 0:
            fh.write("\n" * M.shape[0])
        else:
            write_rows(fh, ",".join([FLOAT_FMT] * M.shape[1]) + "\n", *M.T)


def read_pairs_tsv(path) -> List[Tuple[int, int, float]]:
    """Read 'i<TAB>j<TAB>value' triples (fair distances between pairs)."""
    (i, j, value), _ = read_table(
        path, (np.int64, np.int64, float), delimiter="\t", comments=True
    )
    return list(zip(i.tolist(), j.tolist(), value.tolist()))


def read_groups_csv(path):
    """Read 'row_index,group_id,is_original' rows; returns (group_of, is_original)."""
    entries = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if lineno == 1 and record[0].strip().lower() == "row_index":
                continue
            if len(record) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 columns")
            try:
                idx = int(record[0])
                flag = int(record[2])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: could not parse {record!r}")
            if flag not in (0, 1):
                raise ParseError(f"{path}:{lineno}: is_original must be 0 or 1")
            entries[idx] = (record[1].strip(), bool(flag))
    if not entries:
        raise ParseError(f"{path}: no data rows")
    n = max(entries) + 1
    if set(entries) != set(range(n)):
        raise ParseError(f"{path}: row indices must cover 0..{n - 1}")
    group_of = np.array([entries[i][0] for i in range(n)])
    is_original = np.array([entries[i][1] for i in range(n)], dtype=bool)
    return group_of, is_original


def read_labels_csv(path) -> np.ndarray:
    """Read 'row_index,label' rows into a dense label vector."""
    entries = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if lineno == 1 and record[0].strip().lower() == "row_index":
                continue
            if len(record) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 columns")
            try:
                entries[int(record[0])] = int(record[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: could not parse {record!r}")
    if not entries:
        raise ParseError(f"{path}: no data rows")
    n = max(entries) + 1
    if set(entries) != set(range(n)):
        raise ParseError(f"{path}: row indices must cover 0..{n - 1}")
    return np.array([entries[i] for i in range(n)], dtype=int)


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
