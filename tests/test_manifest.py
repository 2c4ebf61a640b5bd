"""Serialization: every JSON text bvlab writes parses back to what it wrote."""
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bvlab.errors import ValidationError
from bvlab.manifest import csv_text, json_text
from bvlab.variance import VarianceEstimate

# every code point but the surrogates, the controls U+0000-U+001F included
TEXT = st.text(st.characters(exclude_categories=["Cs"]))
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner) | st.dictionaries(TEXT, inner), max_leaves=20)


@given(VALUES)
@example({"a\x01b": ["\x00", "\x1f\x7f\u2028", '"\\\n\t\r\b\f']})
def test_json_text_parses_back(value):
    assert json.loads(json_text(value)) == value


def test_json_text_is_deterministic():
    value = {"b": [1.0, 0.1, True, None], "a": {"z": 2.5j, "y": (1, -0.0)}, "é": "\x01"}
    assert json_text(value) == ('{"a": {"y": [1, -0], "z": [0, 2.5]}, '
                                '"b": [1, 0.10000000000000001, true, null], "é": "\\u0001"}\n')


@pytest.mark.parametrize("value", [{1: "x"}, {"a": 1, 2: "b"}, {"a": {1, 2}},
                                   [float("nan")], b"x"])
def test_json_text_rejects_what_json_cannot_hold(value):
    with pytest.raises(ValidationError):
        json_text(value)


def test_json_text_rejects_a_record():
    # a record is a tuple subclass: it is written as its document, never as a bare array
    est = VarianceEstimate(0.5, None, "lacunary_exact", ((0, 0.5),), False)
    with pytest.raises(ValidationError, match="cannot serialize VarianceEstimate"):
        json_text({"estimate": est})
    assert json_text(est._asdict()) == ('{"converged": false, "diagnostics": [[0, 0.5]], '
                                        '"error": null, "method": "lacunary_exact", '
                                        '"value": 0.5}\n')


def test_csv_text():
    assert csv_text(["k", "v"], [[1, 0.1], ["x", -2]]) == "k,v\n1,0.10000000000000001\nx,-2\n"
    with pytest.raises(ValidationError):
        csv_text(["k"], [[None]])
    with pytest.raises(ValidationError):
        csv_text(["k", "v"], [[1]])
