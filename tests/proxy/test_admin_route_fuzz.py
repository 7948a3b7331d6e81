"""Generated hostile requests for the proxy admin API.

Hypothesis builds ``PUT``, ``GET`` and ``DELETE /bifrost/config``
requests against a proxy with an installed routing configuration.  A
``PUT`` body is a configuration document in which each field is either
well formed or replaced by a hostile value: another JSON type, a number
that is not finite, out of range or past a float, an empty or long name,
an endpoint with no host, a bad port (one ``int()`` takes but that is not
1-5 ASCII digits among them) or a port outside 1-65535, a missing
or an unknown key.  The encoded document may then be cut short or made
invalid UTF-8, and the body may be sent chunked.  ``GET`` and ``DELETE``
carry an optional body, and a target may carry a query string.

Every answer is below 500 and arrives before a deadline, and the
connection then serves a valid request.  A 4xx leaves ``config_version``
and the installed routing as they were.  After an accepted ``PUT``, a
user request through the proxy is answered below 500: a non-string
header name once installed and turned every user request into a 500.
"""

import asyncio
import json

from hypothesis import example, given, settings, strategies as st

from repro.core import single_version
from repro.httpcore import HttpServer, Response
from repro.proxy import BifrostProxy

DEADLINE = 5.0

#: Stand-in replaced, at send time, by the stub upstream's address.
STUB = "<stub>"

NAMES = ["stable", "stable", "stable", "v2", "v2", "canary", "", "é", "x" * 300]
PERCENTAGES = [100, 100, 100, 50, 50, 0, 99, 1, 99.5, 0.5, 150, -50, 100.0000001, 1e-9]
HEADERS = ["X-Bifrost-Group", "x-bifrost-group", "", "a\r\nb", "h" * 300]
FILTERS = ["cookie", "header", "Header", ""]
#: Endpoint texts: only the stub is reachable; every other one must be
#: refused, so no accepted configuration names a host but the loopback.
#: Port spellings ``int()`` takes but an endpoint refuses.
BAD_PORTS = ["127.0.0.1:", "127.0.0.1:+80", "127.0.0.1: 80", "127.0.0.1:8_0"]
ENDPOINTS = [STUB, STUB, STUB, STUB, STUB, "", ":80", "127.0.0.1:http", "127.0.0.1:99999", "127.0.0.1:-1", "127.0.0.1:0", *BAD_PORTS]
QUERIES = ["", "", "", "?", "?x=1", "?%zz", "?a&b=", "?routing=%7B%7D"]

#: A value of another JSON type than the field expects.  No text: an
#: endpoint drawn from here must never name a host to resolve.
not_text = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
hostile = st.one_of(not_text, st.text(max_size=6))


def either(good, bad=hostile):
    """*good*, or one time in twelve a hostile value in its place."""
    return st.sampled_from([good] * 11 + [bad]).flatmap(lambda chosen: chosen)


def maybe_drop(document):
    """*document* with, now and then, one of its keys removed."""

    def drop(pair):
        fields, index = pair
        keys = list(fields)
        if index is not None and index < len(keys):
            del fields[keys[index]]
        return fields

    return st.tuples(document, st.sampled_from([None] * 40 + [0, 1, 2, 3, 4])).map(drop)


names = st.sampled_from(NAMES)
percentages = st.sampled_from(PERCENTAGES)
split = maybe_drop(st.fixed_dictionaries({"version": either(names), "percentage": either(percentages)}))
shadow = maybe_drop(
    st.fixed_dictionaries(
        {"source": either(names), "target": either(names), "percentage": either(percentages)}
    )
)
routing = maybe_drop(
    st.fixed_dictionaries(
        {
            "splits": either(st.lists(split, min_size=1, max_size=2)),
            "shadows": either(st.lists(shadow, max_size=2)),
            "sticky": either(st.booleans()),
            "filter": either(st.sampled_from(FILTERS)),
            "header": either(st.sampled_from(HEADERS)),
        }
    )
)
endpoint_text = st.sampled_from(ENDPOINTS)
endpoint = either(st.one_of(endpoint_text, st.lists(endpoint_text, max_size=3)), not_text)
endpoints = either(
    maybe_drop(
        st.fixed_dictionaries(
            {"stable": endpoint}, optional={name: endpoint for name in NAMES if name != "stable"}
        )
    ),
    not_text,
)
document = either(
    maybe_drop(
        st.fixed_dictionaries(
            {"routing": either(routing), "endpoints": endpoints},
            optional={"extra": hostile},
        )
    )
)


def encode(pair) -> bytes:
    """The document as JSON, whole or cut short, or with a byte that is
    not UTF-8."""
    value, (damage, at) = pair
    text = json.dumps(value).encode()
    at = at % (len(text) + 1)
    if damage == "cut":
        return text[:at]
    if damage == "byte":
        return text[:at] + b"\xff" + text[at:]
    return text


bodies = st.tuples(
    document, st.tuples(st.sampled_from(["whole"] * 8 + ["cut", "byte"]), st.integers(0, 10**6))
).map(encode)
requests = st.one_of(
    st.tuples(st.just("PUT"), st.sampled_from(QUERIES), bodies, st.booleans()),
    st.tuples(st.just("PUT"), st.sampled_from(QUERIES), bodies, st.booleans()),
    st.tuples(
        st.sampled_from(["GET", "DELETE"]),
        st.sampled_from(QUERIES),
        st.one_of(st.just(b""), bodies),
        st.booleans(),
    ),
)

GOOD = {"routing": single_version("stable").to_wire(), "endpoints": {"stable": STUB}}
#: A non-string header name: accepted once, and every user request
#: afterwards was a 500.
HEADER_NAME_A_NUMBER = dict(
    GOOD, routing=dict(GOOD["routing"], filter="header", header=5)
)
#: The installed configuration with a bad port spelling: each is a 400.
BAD_PORT_BODIES = [json.dumps(GOOD).replace(STUB, bad).encode() for bad in BAD_PORTS]


def frame(method: str, target: str, body: bytes, chunked: bool) -> bytes:
    head = f"{method} {target} HTTP/1.1\r\nHost: proxy\r\nX-Bifrost-Group: stable\r\n"
    if not chunked:
        return f"{head}Content-Length: {len(body)}\r\n\r\n".encode() + body
    half = len(body) // 2
    chunks = b"".join(
        b"%x\r\n%s\r\n" % (len(piece), piece) for piece in (body[:half], body[half:]) if piece
    )
    return f"{head}Transfer-Encoding: chunked\r\n\r\n".encode() + chunks + b"0\r\n\r\n"


async def exchange(reader, writer, wire: bytes) -> tuple[int, bytes]:
    writer.write(wire)
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        assert name.lower() != b"transfer-encoding", head
        if name.lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def installed(proxy: BifrostProxy) -> tuple:
    return proxy.config_version, proxy.active_config, proxy._endpoints


def test_hostile_admin_requests_are_answered_below_500():
    loop = asyncio.new_event_loop()
    stub = HttpServer(name="stub")

    async def answer(request):
        return Response(body=b"stub")

    stub.router.set_fallback(answer)
    loop.run_until_complete(stub.start())
    proxy = BifrostProxy("product", default_upstream=stub.address)
    loop.run_until_complete(proxy.start())
    reader, writer = loop.run_until_complete(
        asyncio.open_connection(proxy.host, proxy.port, limit=1 << 20)
    )

    def send(method: str, target: str, body: bytes = b"", chunked: bool = False) -> tuple[int, bytes]:
        body = body.replace(STUB.encode(), stub.address.encode())
        wire = frame(method, target, body, chunked)
        return loop.run_until_complete(asyncio.wait_for(exchange(reader, writer, wire), DEADLINE))

    def install_good() -> None:
        assert send("PUT", "/bifrost/config", json.dumps(GOOD).encode())[0] == 200

    install_good()

    @settings(max_examples=400, deadline=None)
    @given(request=requests)
    @example(request=("PUT", "", json.dumps(HEADER_NAME_A_NUMBER).encode(), False))
    @example(request=("PUT", "", json.dumps(GOOD).replace(STUB, "127.0.0.1:99999").encode(), False))
    @example(request=("PUT", "", json.dumps(dict(GOOD, endpoints={"stable": 5})).encode(), True))
    def hostile(request):
        method, query, body, chunked = request
        if proxy.active_config is None:
            install_good()
        before = installed(proxy)
        status, answer = send(method, "/bifrost/config" + query, body, chunked)
        assert status < 500, (method, query, body[:300], answer[:300])
        if body in BAD_PORT_BODIES:
            assert status == 400, (body, answer[:300])
        assert send("GET", "/bifrost/config")[0] == 200
        if 400 <= status < 500:
            assert installed(proxy) == before
        if method == "PUT" and status == 200 and proxy.active_config is not None:
            user, answer = send("GET", "/products", chunked=False)
            assert user < 500, (body[:300], answer[:300])

    for body in BAD_PORT_BODIES:
        hostile = example(request=("PUT", "", body, False))(hostile)
    try:
        hostile()
    finally:
        writer.close()
        loop.run_until_complete(proxy.stop())
        loop.run_until_complete(stub.stop())
        loop.close()
