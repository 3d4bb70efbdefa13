"""Property test: float text is written byte for byte as '%.17g' writes it,
and read bit for bit as float() reads it, over all doubles."""

from io import StringIO

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fairsmooth import io  # noqa: E402

# every double: subnormals, signed zeros, infinities and NaN included
DOUBLES = st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(DOUBLES)
def test_written_bytes_match_percent_format(values):
    buffer = StringIO()
    io.write_rows(buffer, ",", np.array(values))
    assert buffer.getvalue() == "".join(f"{v:.17g}\n" for v in values)


@settings(max_examples=300, deadline=None)
@given(DOUBLES, st.sampled_from(["%.17g", "%.16g", "%r"]))
def test_parsed_values_match_float(tmp_path_factory, values, fmt):
    texts = [fmt % v for v in values]
    path = tmp_path_factory.mktemp("floats") / "t.tsv"
    path.write_text("".join(f"{k}\t{text}\n" for k, text in enumerate(texts)))
    (_, got), _ = io.read_table(path, (np.int64, float), delimiter="\t")
    assert got.tobytes() == np.array([float(t) for t in texts]).tobytes()
