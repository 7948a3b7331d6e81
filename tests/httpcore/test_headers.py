"""Unit tests for the case-insensitive header multimap."""

from repro.httpcore import Headers
from tests.httpcore.wire import fields


def test_get_is_case_insensitive():
    headers = Headers([("Content-Type", "application/json")])
    assert headers.get("content-type") == "application/json"
    assert headers.get("CONTENT-TYPE") == "application/json"


def test_get_returns_default_when_absent():
    assert Headers().get("X-Missing", "fallback") == "fallback"
    assert Headers().get("X-Missing") is None


def test_add_keeps_duplicates_and_get_all_returns_them_in_order():
    headers = Headers()
    headers.add("Set-Cookie", "a=1")
    headers.add("Set-Cookie", "b=2")
    assert headers.get_all("set-cookie") == ["a=1", "b=2"]
    assert headers.get("Set-Cookie") == "a=1"


def test_set_replaces_all_duplicates():
    headers = Headers([("X-Tag", "one"), ("x-tag", "two")])
    headers.set("X-TAG", "three")
    assert headers.get_all("x-tag") == ["three"]


def test_setdefault_only_sets_when_absent():
    headers = Headers([("Host", "a")])
    assert headers.setdefault("host", "b") == "a"
    assert headers.setdefault("X-New", "c") == "c"
    assert headers.get("x-new") == "c"


def test_remove_is_case_insensitive_and_ignores_missing():
    headers = Headers([("A", "1"), ("a", "2"), ("B", "3")])
    headers.remove("A")
    headers.remove("never-there")
    assert fields(headers) == [("B", "3")]


def test_copy_is_independent():
    original = Headers([("A", "1")])
    clone = original.copy()
    clone.add("B", "2")
    assert original.get("B") is None
    assert clone.get("B") == "2"


def test_init_from_dict():
    headers = Headers({"Host": "example", "Accept": "*/*"})
    assert headers.get("host") == "example"
    assert headers.get("accept") == "*/*"


def test_iteration_preserves_insertion_order():
    headers = Headers([("Z", "26"), ("A", "1")])
    assert fields(headers) == [("Z", "26"), ("A", "1")]


def test_values_are_coerced_to_strings():
    headers = Headers()
    headers.add("Content-Length", 42)  # type: ignore[arg-type]
    assert headers.get("content-length") == "42"


def test_merge_joins_onto_the_first_field_in_place_or_adds():
    headers = Headers([("A", "1"), ("COOKIE", "x=1"), ("cookie", "y=2")])
    headers.merge("Cookie", "z=3", "; ")
    assert fields(headers) == [("A", "1"), ("COOKIE", "x=1; z=3"), ("cookie", "y=2")]
    headers.merge("Via", "1.1 gw", ", ")
    assert fields(headers)[-1] == ("Via", "1.1 gw")
    assert headers.get("via") == "1.1 gw"


def test_forward_copy_drops_hop_by_hop_nominated_and_host_only():
    original = Headers(
        [
            ("Host", "a"),
            ("Set-Cookie", "a=1"),
            ("CONNECTION", "close, X-Private"),
            ("x-private", "1"),
            ("connection", "x-other"),
            ("X-Other", "2"),
            ("Keep-Alive", "timeout=5"),
            ("TE", "trailers"),
            ("Transfer-Encoding", "chunked"),
            ("Upgrade", "h2c"),
            ("set-cookie", "b=2"),
            ("Content-Length", "3"),
        ]
    )
    before = fields(original)
    forwarded = original.forward_copy()
    assert fields(forwarded) == [("Set-Cookie", "a=1"), ("set-cookie", "b=2")]
    assert forwarded.get("content-length") == "3"
    assert forwarded.get("transfer-encoding") is None
    forwarded.add("Host", "b")
    # A copy: the receiver is untouched.
    assert fields(original) == before
    assert original.get("transfer-encoding") == "chunked"
    assert forwarded.get("host") == "b"
