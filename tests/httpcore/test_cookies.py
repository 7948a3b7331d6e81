"""Unit tests for cookie parsing and Set-Cookie formatting."""

from repro.httpcore import SetCookie, parse_cookie_header


def test_parse_simple_pair():
    assert parse_cookie_header("session=abc") == {"session": "abc"}


def test_parse_multiple_pairs_with_spacing():
    parsed = parse_cookie_header("a=1; b=2;  c = 3 ")
    assert parsed == {"a": "1", "b": "2", "c": "3"}


def test_parse_none_and_empty_header():
    assert parse_cookie_header(None) == {}
    assert parse_cookie_header("") == {}


def test_parse_skips_malformed_pairs():
    assert parse_cookie_header("good=1; malformed; =alsobad") == {"good": "1"}


def test_parse_strips_quoted_values():
    assert parse_cookie_header('q="hello world"') == {"q": "hello world"}


def test_parse_later_duplicate_wins():
    assert parse_cookie_header("x=1; x=2") == {"x": "2"}


def test_parse_value_containing_equals():
    assert parse_cookie_header("token=a=b=c") == {"token": "a=b=c"}


def test_set_cookie_default_format():
    rendered = SetCookie("bifrost_uid", "u-123").format()
    assert rendered.startswith("bifrost_uid=u-123")
    assert "Path=/" in rendered
    assert "HttpOnly" in rendered
    assert "Secure" not in rendered


def test_set_cookie_all_attributes():
    rendered = SetCookie(
        "s", "v", path="/app", max_age=3600, http_only=False, secure=True, same_site="Lax"
    ).format()
    assert "Path=/app" in rendered
    assert "Max-Age=3600" in rendered
    assert "HttpOnly" not in rendered
    assert "Secure" in rendered
    assert "SameSite=Lax" in rendered
