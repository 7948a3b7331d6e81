"""What the gateway passes on: it forwards through ``Headers.forward_copy``
(the overlay the Bifrost proxy uses), so hop-by-hop fields stop at each hop
and everything else arrives as it was sent."""

import json

import pytest

from repro.cluster import Gateway
from repro.httpcore import Headers, HttpClient, HttpServer, Request, Response


def recording_upstream() -> HttpServer:
    """Answers with the request fields it received, as a JSON list, and
    sets two cookies in odd casing."""
    server = HttpServer(name="recorder")

    async def record(request: Request) -> Response:
        response = Response(body=json.dumps(request.headers.items()).encode())
        response.headers.add("SET-cookie", "a=1")
        response.headers.add("Set-Cookie", "b=2")
        return response

    server.router.set_fallback(record)
    return server


def fronts(kind: str, upstream: str) -> list[HttpServer]:
    """The hops in front of *upstream*, outermost first."""
    inner = Gateway()
    inner.add_route("/", upstream)
    if kind == "gateway":
        return [inner]
    return [Gateway(), inner]  # gateway -> gateway


@pytest.mark.parametrize("kind", ["gateway", "gateway+gateway"])
async def test_hop_by_hop_stops_and_the_rest_arrives_unchanged(kind):
    upstream = recording_upstream()
    await upstream.start()
    hops = fronts(kind, upstream.address)
    for hop in reversed(hops):
        await hop.start()
    if kind == "gateway+gateway":
        hops[0].add_route("/", hops[1].address)
    sent = Headers(
        [
            ("hOsT", "shop.example"),
            ("COOKIE", "theme=dark"),
            ("X-Trace-ID", "t-1"),
            ("cookie", "lang=en"),
            ("Connection", "x-foo, X-Bar"),
            ("X-Foo", "hop-private"),
            ("x-bar", "hop-private"),
            ("Keep-Alive", "timeout=5"),
            ("Upgrade", "h2c"),
            ("TE", "trailers"),
        ]
    )
    try:
        async with HttpClient() as client:
            response = await client.send(
                Request("GET", "/things?q=1", sent), hops[0].host, hops[0].port
            )
        received = [tuple(field) for field in response.json()]
        # Nominated and static hop-by-hop fields went no further; the rest
        # kept order, casing and repetitions; Host was rewritten once, for
        # the last hop's upstream.
        assert received == [
            ("COOKIE", "theme=dark"),
            ("X-Trace-ID", "t-1"),
            ("cookie", "lang=en"),
            ("Host", upstream.address),
            ("Content-Length", "0"),
        ]
        assert [f for f in response.headers.items() if f[0].lower() == "set-cookie"] == [
            ("SET-cookie", "a=1"),
            ("Set-Cookie", "b=2"),
        ]
    finally:
        for server in [*hops, upstream]:
            await server.stop()
