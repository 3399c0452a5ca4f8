"""report_to_text writes what json.dumps(report, sort_keys=True, indent=2)
writes, plus a newline, byte for byte."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lgtft.jobs import report_to_text

ROOT = Path(__file__).resolve().parents[1]
REPORTS = sorted(ROOT.glob("bench/reference/*.json")) + sorted(
    ROOT.glob("tests/reference/*.json")
)


def _expected(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "path", REPORTS, ids=[f"{p.parent.parent.name}/{p.name}" for p in REPORTS]
)
def test_reference_reports_are_written_as_json_writes_them(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report_to_text(report) == _expected(report)


def test_keys_are_sorted_before_they_become_strings():
    value = {"k": {10: 1, 2: 2, 1: 3}}  # 2 before 10, as numbers
    assert report_to_text(value) == _expected(value)
    for key in (None, 1.5, False):
        assert report_to_text({key: key}) == _expected({key: key})
    for unwritable in ({(1, 2): 0}, {None: 0, 1: 0}):  # a tuple; no order
        with pytest.raises(TypeError):
            json.dumps(unwritable, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            report_to_text(unwritable)


_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " "]),
    ),
    max_size=8,
)
_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
@example({"a": {}, "b": [], "c": [[], {}], "": ""})
@example([math.inf, -math.inf, math.nan, -0.0, 1e300])
def test_nested_values_are_written_as_json_writes_them(value):
    assert report_to_text(value) == _expected(value)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(), _SCALARS, max_size=5))
def test_int_keys_are_written_as_json_writes_them(value):
    assert report_to_text(value) == _expected(value)

