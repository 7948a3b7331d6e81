"""Tests for the from-scratch YAML-subset parser."""

import pytest

from repro.dsl import YamlError, dumps, loads


# -- scalars --------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("42", 42),
        ("-7", -7),
        ("3.14", 3.14),
        ("1e3", 1000.0),
        ("2.5e2", 250.0),
        ("true", True),
        ("True", True),
        ("false", False),
        ("null", None),
        ("~", None),
        ("hello", "hello"),
        ("'quoted string'", "quoted string"),
        ('"double"', "double"),
        ('"with \\"escape\\""', 'with "escape"'),
        ('"line\\nbreak"', "line\nbreak"),
        ("[1, 2, 3]", [1, 2, 3]),
        ("[a, true, 1.5]", ["a", True, 1.5]),
        ("[]", []),
    ],
)
def test_scalar_parsing(text, expected):
    assert loads(text) == expected


def test_empty_document_is_none():
    assert loads("") is None
    assert loads("\n\n# only comments\n") is None


# -- mappings -------------------------------------------------------------------


def test_flat_mapping():
    assert loads("a: 1\nb: two\n") == {"a": 1, "b": "two"}


def test_nested_mapping():
    text = """
root:
  child: 1
  deeper:
    leaf: true
other: x
"""
    assert loads(text) == {
        "root": {"child": 1, "deeper": {"leaf": True}},
        "other": "x",
    }


def test_key_with_empty_value_is_none():
    assert loads("key:\nnext: 1") == {"key": None, "next": 1}


def test_duplicate_keys_rejected():
    with pytest.raises(YamlError):
        loads("a: 1\na: 2\n")


def test_value_containing_colon():
    assert loads('query: request_errors{instance="search:80"}') == {
        "query": 'request_errors{instance="search:80"}'
    }


def test_quoted_value_with_colon_space():
    assert loads('v: "a: b"') == {"v": "a: b"}


# -- sequences -------------------------------------------------------------------


def test_sequence_of_scalars():
    assert loads("- 1\n- two\n- true\n") == [1, "two", True]


def test_sequence_under_key():
    text = """
items:
  - a
  - b
"""
    assert loads(text) == {"items": ["a", "b"]}


def test_sequence_at_same_indent_as_key():
    # YAML allows "key:\n- item" without extra indentation.
    assert loads("items:\n- a\n- b\n") == {"items": ["a", "b"]}


def test_sequence_of_mappings():
    text = """
phases:
  - phase:
      name: canary
      duration: 60
  - phase:
      name: rollout
"""
    assert loads(text) == {
        "phases": [
            {"phase": {"name": "canary", "duration": 60}},
            {"phase": {"name": "rollout"}},
        ]
    }


def test_sequence_item_inline_mapping_with_continuation():
    text = """
- name: one
  value: 1
- name: two
  value: 2
"""
    assert loads(text) == [
        {"name": "one", "value": 1},
        {"name": "two", "value": 2},
    ]


def test_dash_alone_with_nested_block():
    text = """
-
  a: 1
- scalar
"""
    assert loads(text) == [{"a": 1}, "scalar"]


def test_dash_alone_without_block_is_none():
    assert loads("- \n- x\n".replace("- \n", "-\n")) == [None, "x"]


def test_paper_listing_1_shape():
    text = """
- metric:
    providers:
      - prometheus:
          name: search_error
          query: request_errors{instance="search:80"}
    intervalTime: 5
    intervalLimit: 12
    threshold: 12
    validator: "<5"
"""
    document = loads(text)
    metric = document[0]["metric"]
    assert metric["intervalTime"] == 5
    assert metric["validator"] == "<5"
    assert metric["providers"][0]["prometheus"]["name"] == "search_error"


# -- comments and formatting -----------------------------------------------------


def test_comments_stripped():
    text = """
# leading comment
a: 1  # trailing comment
b: "not # a comment"
"""
    assert loads(text) == {"a": 1, "b": "not # a comment"}


def test_document_start_marker_tolerated():
    assert loads("---\na: 1\n") == {"a": 1}


def test_tabs_in_indentation_rejected():
    with pytest.raises(YamlError):
        loads("a:\n\tb: 1\n")


def test_unsupported_features_rejected():
    for bad in ["a: &anchor 1", "a: |", "*alias"]:
        with pytest.raises(YamlError):
            loads(bad)


def test_bad_indentation_rejected():
    with pytest.raises(YamlError):
        loads("a: 1\n    b: 2\n")


def test_unterminated_quote_rejected():
    with pytest.raises(YamlError):
        loads('a: "unterminated')


def test_error_carries_line_number():
    try:
        loads("ok: 1\nbad: &x 1\n")
    except YamlError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected YamlError")


# -- dumps round trip ----------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        {"a": 1, "b": "two", "c": [1, 2], "d": {"e": True, "f": None}},
        [{"x": 1}, {"y": [1, "z"]}],
        {"quoted": "needs: quoting", "number-like": "42", "empty": "", "bool-like": "true"},
        {"validator": "<5", "query": 'errors{instance="s:80"}'},
        {"nested": {"deep": {"deeper": [{"a": 1}]}}},
        {"empty_list": [], "empty_map": {}},
        "plain scalar",
        None,
        3.5,
        # A quoted scalar or key containing ": " is not split as a mapping
        # line; a plain key may contain ":" not followed by a space.
        "x: y",
        ": ",
        {"a: ": 1},
        ["x: y", {'"k: v"': ": "}],
        {"a:b": "c:d", "http://h:80": 1},
        # Control characters only survive as escapes of a quoted scalar.
        "line\nbreak",
        {"tab": "a\tb"},
    ],
)
def test_dumps_loads_round_trip(value):
    assert loads(dumps(value)) == value
