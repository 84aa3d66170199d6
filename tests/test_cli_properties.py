"""Property tests: whatever the input file holds, the CLI exits 0, 1, 2 or 3
and no exception escapes ``cli.main``."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crglobal import families  # noqa: E402
from crglobal.cli import main, table_to_json  # noqa: E402

EXIT_CODES = (0, 1, 2, 3)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

json_like = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["order", "table", "labels"]) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-1, n), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


def plain_text(rows) -> str:
    return "\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows]) + "\n"


json_documents = json_like | st.fixed_dictionaries(
    {"table": json_like}, optional={"order": json_like, "labels": json_like}
)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-properties")
    valid = root / "l2.json"
    valid.write_text(table_to_json("left-zero-2", families.left_zero(2)))
    return root / "input", str(valid)


def run_all_commands(path: str, valid: str) -> None:
    for argv in (
        ["analyze", path],
        ["breakable", path],
        ["globaliso", path, path],
        ["globaliso", valid, path],
    ):
        assert main(argv) in EXIT_CODES, argv


@PROPERTY
@given(data=st.binary(max_size=200))
def test_cli_survives_arbitrary_bytes(paths, data):
    path, valid = paths
    path.write_bytes(data)
    run_all_commands(str(path), valid)


@PROPERTY
@given(doc=json_documents)
def test_cli_survives_json_like_documents(paths, doc):
    path, valid = paths
    path.write_text(json.dumps(doc))
    run_all_commands(str(path), valid)


@PROPERTY
@given(rows=matrices(), as_json=st.booleans())
def test_cli_survives_integer_matrices(paths, rows, as_json):
    path, valid = paths
    path.write_text(json.dumps({"table": rows}) if as_json else plain_text(rows))
    run_all_commands(str(path), valid)
