"""``PUT /bifrost/config`` answers malformed bodies with 400, and a path that
only looks like the admin API does not reach it: state untouched."""

import pytest

from repro.core import single_version
from repro.httpcore import HttpClient
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
