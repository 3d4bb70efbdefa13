"""File formats: CSV matrices, TSV pair lists, groups and labels files.

Floats are serialized with 17 significant digits so that re-reading a file
reproduces the exact double-precision values.  The bytes written are those
of ``'%.17g' % x``, formatted in bulk with double-double arithmetic; a value
that arithmetic cannot certify is formatted by Python.  np.loadtxt reads a
float field bit for bit as ``float()`` reads it.
"""

import csv
import functools
import json
import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import IndexOutOfRange, ParseError

FLOAT_FMT = "%.17g"

# rows per write: bounds the formatted text held at once
WRITE_CHUNK = 16384


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
        try:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if lineno <= skiprows or not text or (comments and text.startswith("#")):
                    continue
                yield lineno, text
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _first_bad_line(path, dtypes, delimiter, comments, skiprows) -> Optional[str]:
    kinds = None if dtypes is None else [{"i": int, "f": float}.get(np.dtype(t).kind, str) for t in dtypes]
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
        # read_table rejects a file that is not UTF-8 text; here a comment is only read
        text = data[start:end].decode("utf-8", "replace").strip()
        if not text.startswith("#"):
            raise ParseError(f"{path}:{lineno}: could not parse {text!r}")
        notes.append((lineno, text))
        pos = data.find(b"#", end)
    return notes


def write_rows(fh, delimiter: str, *columns) -> None:
    """Write one line per row of the parallel 1-D ``columns``, its fields
    joined by ``delimiter``.

    A column's dtype picks its text: a float column is written as
    ``FLOAT_FMT`` writes it and a bool or integer column as ``%d``, both
    formatted in bulk (see :func:`_float_tokens`); any other column goes
    through ``str`` one value at a time, and must not contain a NUL character.
    """
    columns = [np.asarray(column) for column in columns]
    sep, newline = _text_tokens([delimiter]), _text_tokens(["\n"])
    total = len(columns[0]) if columns else 0
    for start in range(0, total, WRITE_CHUNK):
        stop = min(start + WRITE_CHUNK, total)
        parts = []
        for column in columns:
            parts += [_tokens(column[start:stop]), sep]
        parts[-1] = newline
        # one column per line, NUL-padded, so the text is the transpose without NULs
        lines = np.empty((sum(len(part) for part in parts), stop - start), dtype=np.uint8)
        at = 0
        for part in parts:
            lines[at : at + len(part)] = part
            at += len(part)
        fh.write(lines.T.tobytes().translate(None, b"\0").decode("utf-8"))


def _tokens(column: np.ndarray) -> np.ndarray:
    """The formatted fields of one chunk of a column, as a NUL-padded
    (width, m) uint8 array with one field per column."""
    if column.dtype.kind == "f":
        return _float_tokens(column.astype(float, copy=False))
    if column.dtype.kind in "biu":
        return _int_tokens(column)
    return _text_tokens([str(v) for v in column.tolist()])


def _text_tokens(texts) -> np.ndarray:
    """The strings ``texts`` as a NUL-padded (width, m) uint8 array of their UTF-8 bytes."""
    data = np.array([text.encode("utf-8") for text in texts], dtype=bytes)
    return data.view(np.uint8).reshape(len(texts), data.dtype.itemsize).T


# Exact bulk '%.17g' formatting.  For a positive double a, the 17 significant
# digits are D = round(a * 10**(16 - X)) with X = floor(log10(a)), and that
# product is evaluated exactly enough to round it: 10**k is held as a pair
# hi + lo of doubles, and a * hi is split into a rounded product and its exact
# error with Veltkamp's split (Dekker 1971), so the product is known to about
# 2**-100 of its size.  Lanes that this cannot settle go through
# format_float: zeros, infinities, NaNs, subnormals, exponents outside the
# table and products within 1e-9 of a rounding tie.

_SPLITTER = 134217729.0  # 2**27 + 1
# 10**k for k in this range has a normal lo part, and no split overflows
_POW_MIN, _POW_MAX = -280, 300
_TINY = np.finfo(float).tiny
_TIE_MARGIN = 1e-9


def _split(a):
    """Veltkamp's split: hi + lo == a, each with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


@functools.lru_cache(maxsize=None)
def _powers_of_ten():
    """hi, lo, and Veltkamp's split of hi, with hi + lo within 2**-106 of
    10**k, for k from _POW_MIN to _POW_MAX."""
    from fractions import Fraction  # only a process that writes floats needs it

    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        exact = Fraction(10) ** k
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
    hi, lo = np.array(hi), np.array(lo)
    return (hi, lo, *_split(hi))


def _scale(a, k):
    """(s, r) with s + r equal to a * 10**k within about 2**-100 of its size
    and |r| at most half an ulp of s, for k inside the table."""
    hi, lo, hi_hi, hi_lo = (table[k - _POW_MIN] for table in _powers_of_ten())
    p = a * hi
    a_hi, a_lo = _split(a)
    # Dekker's exact product: p + e == a * hi
    e = a_lo * hi_lo - (((p - a_hi * hi_hi) - a_lo * hi_hi) - a_hi * hi_lo)
    t = e + a * lo
    s = p + t
    return s, t - (s - p)


def _significand(a):
    """For positive doubles a, (D, X, ok): D the int64 in [1e16, 1e17) with
    D * 10**(X - 16) the 17-significant-digit rounding of a, half to even,
    wherever ok; elsewhere a is not normal, is outside the table, or is
    within _TIE_MARGIN of a tie."""
    ok = (a >= _TINY) & (a < np.inf)
    a = np.where(ok, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    ok &= (X >= 16 - _POW_MAX) & (X <= 16 - _POW_MIN)
    X = np.clip(X, 16 - _POW_MAX, 16 - _POW_MIN)
    s, r = _scale(a, 16 - X)
    # log10 can be one off next to a power of ten
    off = np.flatnonzero((s < 1e16) | (s >= 1e17))
    if off.size:
        X[off] += np.where(s[off] < 1e16, -1, 1)
        X[off] = np.clip(X[off], 16 - _POW_MAX, 16 - _POW_MIN)
        s[off], r[off] = _scale(a[off], 16 - X[off])
    ok &= ((s > 1e16) | ((s == 1e16) & (r >= 0))) & (s < 1e17)
    # s is an even integer, so rounding r half to even rounds s + r half to even
    ok &= np.abs(r - np.floor(r) - 0.5) > _TIE_MARGIN
    D = s.astype(np.int64) + np.rint(r).astype(np.int64)
    carry = D == 10**17
    return np.where(carry, 10**16, D), X + carry, ok


def _digits(y, width: int) -> np.ndarray:
    """The last ``width`` decimal digits of the non-negative integers y, as a
    (width, *y.shape) uint8 array."""
    digits = np.empty((width, *y.shape), dtype=np.uint8)
    y, q = y.copy(), np.empty_like(y)
    for j in range(width - 1, -1, -1):
        np.floor_divide(y, 10, out=q)
        digits[j] = y - q * 10
        y, q = q, y
    return digits


def _float_tokens(x: np.ndarray) -> np.ndarray:
    """``FLOAT_FMT % v`` for each v of the float64 array x, as a NUL-padded
    (width, m) uint8 array with one field per column.

    NUL bytes stand in for the characters a field does not use, so every
    field is laid out the same way: a sign, the '0.' and zeros in front of a
    number below 1 in fixed notation, the 17 digits with a slot for the
    point, and the exponent.
    """
    m = x.size
    with np.errstate(over="ignore", invalid="ignore"):
        D, X, ok = _significand(np.abs(x))
    hi = D // 10**9
    digits = np.concatenate([_digits(hi.astype(np.uint32), 8), _digits((D - hi * 10**9).astype(np.uint32), 9)])
    fixed = (X >= -4) & (X < 17)
    # digits before the point: X + 1 in fixed notation, one in exponent notation
    point = np.where(fixed, np.maximum(X + 1, 0), 1).astype(np.int8)
    column = np.arange(18, dtype=np.int8)[:, None]
    significant = ((digits != 0) * column[1:]).max(axis=0)
    # trailing zeros after the point are dropped
    shown = np.zeros((19, m), dtype=np.uint8)
    shown[1:18] = (digits + 48) * (column[:17] < np.maximum(significant, point))
    dot = ((significant > point) & (point > 0)) * np.uint8(ord("."))
    body = shown[1:] * (column < point) + shown[:-1] * (column > point) + (column == point) * dot
    parts = [body]
    if np.any(x < 0):
        parts.insert(0, (x < 0)[None, :] * np.uint8(ord("-")))
    lead = np.where(fixed & (X < 0), 1 - X, 0)
    if lead.any():
        width = int(lead.max())
        used = np.arange(width)[:, None] < lead
        parts.insert(-1, used * np.frombuffer(b"0.000"[:width], dtype=np.uint8)[:, None])
    if not fixed.all():
        exponent = np.empty((5, m), dtype=np.uint8)
        exponent[0] = ord("e")
        exponent[1] = np.where(X < 0, ord("-"), ord("+"))
        exponent[2:] = _digits(np.abs(X), 3) + 48
        exponent[2] *= np.abs(X) >= 100
        parts.append(exponent * ~fixed)
    tokens = np.concatenate(parts)
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = _text_tokens([format_float(v) for v in x[slow].tolist()])
        if len(text) > len(tokens):
            tokens = np.pad(tokens, ((0, len(text) - len(tokens)), (0, 0)))
        tokens[:, slow] = 0
        tokens[: len(text), slow] = text
    return tokens


def _int_tokens(v: np.ndarray) -> np.ndarray:
    """``'%d' % i`` for each i of the integer array v, as a NUL-padded
    (width, m) uint8 array with one field per column."""
    a = v.astype(np.uint64)
    a = np.where(v < 0, 0 - a, a)  # |i|, with wraparound for the most negative int64
    width = len(str(int(a.max())))
    tokens = _digits(a, width) + np.uint8(48)
    # leading zeros are dropped
    tokens[:-1] *= a >= (10 ** np.arange(width - 1, 0, -1, dtype=np.uint64))[:, None]
    if np.any(v < 0):
        tokens = np.concatenate([(v < 0)[None, :] * np.uint8(ord("-")), tokens])
    return tokens


def read_matrix_csv(path) -> np.ndarray:
    """Read a CSV matrix; an optional non-numeric first row is a header."""
    M, _ = read_table(path, delimiter=",", skiprows=int(_has_header(path)))
    if M.shape[0] == 0:
        raise ParseError(f"{path}: no data rows")
    return M


def _has_header(path) -> bool:
    # read_table rejects a file that is not UTF-8 text; here one line is only looked at
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        first = fh.readline()
    if not first.strip():
        return False
    try:
        [float(v) for v in next(csv.reader([first]))]
    except ValueError:
        return True
    return False


def write_matrix_csv(path, M: np.ndarray) -> None:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"c{k}" for k in range(M.shape[1])) + "\n")
        if M.shape[1] == 0:
            fh.write("\n" * M.shape[0])
        else:
            write_rows(fh, ",", *M.T)


def read_pairs_tsv(path) -> np.ndarray:
    """Read 'i<TAB>j<TAB>d' rows (fair distances between pairs) as an (m, 3)
    float array; :func:`metric.check_pairs` checks its values."""
    columns, _ = read_table(path, (np.int64, np.int64, float), delimiter="\t", comments=True)
    return np.column_stack(columns)


def check_row_indices(path, idx: np.ndarray, n: int, *, comments: bool = False, skiprows: int = 0) -> None:
    """Reject row indices of a file read by :func:`read_table` that fall
    outside 0..n-1 (IndexOutOfRange) or name a row twice (ParseError),
    naming the first offending line."""
    outside = np.flatnonzero((idx < 0) | (idx >= n))
    _, first = np.unique(idx, return_index=True)
    repeated = np.setdiff1d(np.arange(idx.size), first)
    for rows, error, what in (
        (outside, IndexOutOfRange, f"is outside 0..{n - 1}"),
        (repeated, ParseError, "names a row already named"),
    ):
        if rows.size:
            line = line_of_row(path, int(rows[0]), comments=comments, skiprows=skiprows)
            raise error(f"{path}:{line}: row index {idx[rows[0]]} {what}")


def _read_keyed_rows(path, dtypes):
    """Columns after the first of a 'row_index,...' CSV, in row-index order;
    the indices must be a permutation of 0..n-1.  A first line whose first
    field is 'row_index' is a header."""
    # read_table rejects a file that is not UTF-8 text; here one line is only looked at
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        header = next(csv.reader([fh.readline()]), None) or [""]
    skiprows = int(header[0].strip().lower() == "row_index")
    (idx, *columns), _ = read_table(path, (np.int64, *dtypes), delimiter=",", skiprows=skiprows)
    if idx.size == 0:
        raise ParseError(f"{path}: no data rows")
    check_row_indices(path, idx, idx.size, skiprows=skiprows)
    order = np.argsort(idx)
    return [column[order] for column in columns]


def read_groups_csv(path):
    """Read 'row_index,group_id,is_original' rows; returns (group_of, is_original)."""
    group_of, flag = _read_keyed_rows(path, (object, np.int64))
    bad = np.flatnonzero((flag != 0) & (flag != 1))
    if bad.size:
        raise ParseError(f"{path}: is_original of row {bad[0]} must be 0 or 1, got {flag[bad[0]]}")
    return np.char.strip(group_of.astype(str)), flag == 1


def read_labels_csv(path) -> np.ndarray:
    """Read 'row_index,label' rows into a dense label vector."""
    return _read_keyed_rows(path, (np.int64,))[0]


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
