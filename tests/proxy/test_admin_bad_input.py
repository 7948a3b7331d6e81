"""``PUT /bifrost/config`` answers malformed bodies with 400, and a path that
only looks like the admin API does not reach it: state untouched."""

import pytest

from repro.core import FilterKind, RoutingConfig, TrafficSplit, single_version
from repro.httpcore import HttpClient, HttpServer, Response
from repro.proxy import BifrostProxy

UPSTREAM = "127.0.0.1:1"  # never contacted: only admin calls are made
GOOD = {
    "routing": single_version("stable").to_wire(),
    "endpoints": {"stable": UPSTREAM},
}

BAD_BODIES = [
    ("not-json", b"{not json"),
    ("json-list", b'[{"routing": {}}]'),
    ("json-string", b'"routing"'),
    ("routing-not-an-object", b'{"routing": [1], "endpoints": {"stable": "127.0.0.1:1"}}'),
    (
        "endpoints-not-a-mapping",
        b'{"routing": {"splits": [{"version": "stable", "percentage": 100}]},'
        b' "endpoints": ["127.0.0.1:1"]}',
    ),
    (
        "endpoint-bad-port",
        b'{"routing": {"splits": [{"version": "stable", "percentage": 100}]},'
        b' "endpoints": {"stable": "127.0.0.1:http"}}',
    ),
    # Wrongly typed routing fields are refused, not coerced.
    (
        "header-name-not-a-string",
        b'{"routing": {"splits": [{"version": "stable", "percentage": 100}],'
        b' "filter": "header", "header": 5}, "endpoints": {"stable": "127.0.0.1:1"}}',
    ),
    (
        "sticky-a-string",
        b'{"routing": {"splits": [{"version": "stable", "percentage": 100}],'
        b' "sticky": "false"}, "endpoints": {"stable": "127.0.0.1:1"}}',
    ),
    (
        "percentage-a-bool",  # once read as 1 %, so this summed to 100
        b'{"routing": {"splits": [{"version": "stable", "percentage": 99},'
        b' {"version": "v2", "percentage": true}]},'
        b' "endpoints": {"stable": "127.0.0.1:1", "v2": "127.0.0.1:1"}}',
    ),
    (
        "percentage-a-string",
        b'{"routing": {"splits": [{"version": "stable", "percentage": "100"}]},'
        b' "endpoints": {"stable": "127.0.0.1:1"}}',
    ),
    (
        "version-not-a-string",
        b'{"routing": {"splits": [{"version": 1, "percentage": 100}]},'
        b' "endpoints": {"1": "127.0.0.1:1"}}',
    ),
    (
        "shadow-target-not-a-string",
        b'{"routing": {"splits": [{"version": "stable", "percentage": 100}],'
        b' "shadows": [{"source": "stable", "target": ["v2"]}]},'
        b' "endpoints": {"stable": "127.0.0.1:1"}}',
    ),
    (
        "shadow-percentage-a-bool",
        b'{"routing": {"splits": [{"version": "stable", "percentage": 100}],'
        b' "shadows": [{"source": "stable", "target": "stable", "percentage": false}]},'
        b' "endpoints": {"stable": "127.0.0.1:1"}}',
    ),
    (
        "percentage-past-a-float",
        b'{"routing": {"splits": [{"version": "stable", "percentage": 1' + b"0" * 400 + b'}]},'
        b' "endpoints": {"stable": "127.0.0.1:1"}}',
    ),
    # Deeper than the JSON decoder can recurse: a RecursionError, not JSON.
    ("nested-past-the-decoder", b"[" * 100_000 + b"]" * 100_000),
]

# One proxy per service: the only kind.  Kept as a parameter so the test
# ids still name what served the admin API.
KINDS = ["proxy"]


def _installed(proxy):
    return proxy.config_version, proxy.active_config


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "body", [row[1] for row in BAD_BODIES], ids=[row[0] for row in BAD_BODIES]
)
async def test_bad_config_is_400_and_leaves_the_plan_untouched(kind, body):
    proxy = BifrostProxy("product", default_upstream=UPSTREAM)
    await proxy.start()
    url = f"http://{proxy.address}/bifrost/config"
    try:
        async with HttpClient() as client:
            assert (await client.put(url, json_body=GOOD)).status == 200
            before = _installed(proxy)
            response = await client.put(url, body=body)
        after = _installed(proxy)
    finally:
        await proxy.stop()
    assert response.status == 400, response.body
    assert response.json()["status"] == "error"
    assert after == before
    assert before[0] == 1


@pytest.mark.parametrize("kind", KINDS)
async def test_a_path_starting_with_two_slashes_is_not_the_admin_api(kind):
    # RFC 7230 §5.3.1: "//x/bifrost/config" is an origin-form path; reading
    # "x" as an authority would let any client clear the routing.
    proxy = BifrostProxy("product", default_upstream=UPSTREAM)
    await proxy.start()
    try:
        async with HttpClient() as client:
            url = f"http://{proxy.address}/bifrost/config"
            assert (await client.put(url, json_body=GOOD)).status == 200
            before = _installed(proxy)
            response = await client.delete(f"http://{proxy.address}//x/bifrost/config")
        after = _installed(proxy)
    finally:
        await proxy.stop()
    assert response.status != 200
    assert after == before
    assert before[0] == 1


async def test_a_rejected_header_name_leaves_user_requests_served():
    # A non-string header name once installed and turned every user
    # request into a 500 (Headers.get(5) raised in the filter).
    upstream = HttpServer(name="stable")

    async def answer(request):
        return Response(body=b"stable")

    upstream.router.set_fallback(answer)
    await upstream.start()
    proxy = BifrostProxy("product", default_upstream=upstream.address)
    await proxy.start()
    admin = f"http://{proxy.address}/bifrost/config"
    routing = RoutingConfig(
        splits=[TrafficSplit("stable", 100.0)], filter_kind=FilterKind.HEADER
    ).to_wire()
    try:
        async with HttpClient() as client:
            body = {"routing": routing, "endpoints": {"stable": upstream.address}}
            assert (await client.put(admin, json_body=body)).status == 200
            body["routing"] = dict(routing, header=5)
            assert (await client.put(admin, json_body=body)).status == 400
            response = await client.get(
                f"http://{proxy.address}/products", headers={"X-Bifrost-Group": "stable"}
            )
    finally:
        await proxy.stop()
        await upstream.stop()
    assert response.status == 200
    assert response.body == b"stable"
