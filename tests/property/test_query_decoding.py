"""Property suite for the request target's split and query decoding.

``Request.query`` decodes without ``parse_qsl`` but must answer exactly
as ``dict(parse_qsl(...))`` does, which stays the oracle here, and the
provider's encoded ``/api/v1/query`` target must decode back to the
query it was built from.
"""

from urllib.parse import parse_qsl, urlsplit

from hypothesis import given, strategies as st

from repro.httpcore import Request
from repro.metrics.provider import _query_target

#: Separators, escapes valid and not (``%e2%82`` and ``%ff`` are invalid
#: UTF-8, ``%zz``, ``%4`` and a bare ``%`` are no escape at all), and text
#: with non-ASCII characters.  No ``#``: a target drops its fragment.
pieces = st.one_of(
    st.sampled_from(
        [
            "&", "=", "+", "%", ";", " ", "?", "a", "Z", "0", "query",
            "%20", "%2B", "%26", "%3D", "%25", "%41", "%7e",
            "%C3%A9", "%e2%82%ac", "%F0%9F%98%80",
            "%ff", "%e2%82", "%C3", "%zz", "%4", "%%",
        ]
    ),
    st.text(st.characters(blacklist_characters="#"), min_size=1, max_size=3),
)
query_strings = st.lists(pieces, max_size=24).map("".join)


@given(query_strings)
def test_query_is_parse_qsl(qs):
    assert Request("GET", "/p?" + qs).query == dict(parse_qsl(qs))


@given(query_strings.filter(bool))
def test_the_provider_target_decodes_back_to_its_query(query):
    request = Request("GET", _query_target(query))
    assert request.path == "/api/v1/query"
    assert request.query == {"query": query}


def test_the_provider_target_cache_has_the_compile_query_bound():
    assert _query_target.cache_info().maxsize == 4096


@given(st.lists(pieces, max_size=12).map(lambda parts: "/" + "".join(parts)))
def test_an_origin_form_target_splits_as_urlsplit_does(target):
    # Only "//..." differs: urlsplit reads it as an authority.  urlsplit
    # also deletes tabs and newlines, which a target keeps here.
    if target.startswith("//") or any(c in target for c in "\t\r\n"):
        return
    parts = urlsplit(target)
    request = Request("GET", target)
    assert request.path == (parts.path or "/")
    assert request.query == dict(parse_qsl(parts.query))
