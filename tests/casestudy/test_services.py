"""Tests for the individual case-study services (auth, search, product)."""

import pytest

from repro.casestudy import (
    AuthService,
    MongoClient,
    MongoServer,
    ProductService,
    SearchService,
    fast_search,
    load_fixtures,
    product_variant,
)
from repro.core import ab_split
from repro.httpcore import HttpClient
from repro.proxy import RoutingPlan


# Async pytest fixtures are unavailable offline; each test materializes
# the stack through this helper and tears it down in its finally block.
async def make_stack():
    mongo = MongoServer()
    await mongo.start()
    auth = AuthService(mongo_address=mongo.address)
    await auth.start()
    client = HttpClient()
    await load_fixtures(MongoClient(mongo.address, client), products=10, users=3)
    return mongo, auth, client


async def close_stack(mongo, auth, client, *extra):
    for server in extra:
        await server.stop()
    await client.close()
    await auth.stop()
    await mongo.stop()


# -- auth ----------------------------------------------------------------------


async def test_login_with_valid_credentials():
    mongo, auth, client = await make_stack()
    try:
        response = await client.post(
            f"http://{auth.address}/auth/login",
            json_body={"email": "user0@example.com", "password": "secret-0"},
        )
        assert response.status == 200
        assert "token" in response.json()
        assert auth.logins_total.value == 1
    finally:
        await close_stack(mongo, auth, client)


async def test_login_rejects_bad_credentials():
    mongo, auth, client = await make_stack()
    try:
        response = await client.post(
            f"http://{auth.address}/auth/login",
            json_body={"email": "user0@example.com", "password": "wrong"},
        )
        assert response.status == 401
        response = await client.post(
            f"http://{auth.address}/auth/login", json_body={"email": "x"}
        )
        assert response.status == 400
    finally:
        await close_stack(mongo, auth, client)


@pytest.mark.parametrize(
    "body", [b"{not json", b"\xff\xfe", b"[1, 2]"],
    ids=["not-json", "not-utf8", "json-list"],
)
@pytest.mark.parametrize("path", ["/auth/login", "/db/users/find"])
async def test_bad_json_body_is_a_400_with_an_error(path, body):
    mongo, auth, client = await make_stack()
    server = auth if path.startswith("/auth") else mongo
    try:
        response = await client.post(f"http://{server.address}{path}", body=body)
        assert response.status == 400
        assert response.json()["error"]
    finally:
        await close_stack(mongo, auth, client)


async def test_validate_token_lifecycle():
    mongo, auth, client = await make_stack()
    try:
        login = await client.post(
            f"http://{auth.address}/auth/login",
            json_body={"email": "user1@example.com", "password": "secret-1"},
        )
        token = login.json()["token"]
        response = await client.get(
            f"http://{auth.address}/auth/validate",
            headers={"Authorization": f"Bearer {token}"},
        )
        assert response.json()["email"] == "user1@example.com"
        response = await client.get(
            f"http://{auth.address}/auth/validate?token={token}"
        )
        assert response.status == 200
        response = await client.get(
            f"http://{auth.address}/auth/validate?token=bogus"
        )
        assert response.status == 401
        response = await client.get(f"http://{auth.address}/auth/validate")
        assert response.status == 401
    finally:
        await close_stack(mongo, auth, client)


async def test_login_assigns_ab_group_when_configured():
    mongo, auth, client = await make_stack()
    auth.group_assigner = RoutingPlan(ab_split("product_a", "product_b"))
    try:
        response = await client.post(
            f"http://{auth.address}/auth/login",
            json_body={"email": "user2@example.com", "password": "secret-2"},
        )
        group = response.json()["group"]
        assert group in ("product_a", "product_b")
        # Same user logs in again: same group (η is a stable hash).
        again = await client.post(
            f"http://{auth.address}/auth/login",
            json_body={"email": "user2@example.com", "password": "secret-2"},
        )
        assert again.json()["group"] == group
    finally:
        await close_stack(mongo, auth, client)


# -- search ----------------------------------------------------------------------


async def test_search_finds_products():
    mongo, auth, client = await make_stack()
    search = SearchService(mongo.address)
    await search.start()
    try:
        response = await client.get(f"http://{search.address}/search?q=Laptop")
        body = response.json()
        assert response.status == 200
        assert body["version"] == "search"
        assert all("name" in r for r in body["results"])
        assert search.searches_total.value == 1
    finally:
        await close_stack(mongo, auth, client, search)


async def test_search_404_counted():
    mongo, auth, client = await make_stack()
    search = SearchService(mongo.address)
    await search.start()
    try:
        response = await client.get(f"http://{search.address}/search?q=zzzzz")
        assert response.status == 404
        assert search.not_found_total.value == 1
    finally:
        await close_stack(mongo, auth, client, search)


async def test_search_requires_query():
    mongo, auth, client = await make_stack()
    search = SearchService(mongo.address)
    await search.start()
    try:
        response = await client.get(f"http://{search.address}/search")
        assert response.status == 400
    finally:
        await close_stack(mongo, auth, client, search)


async def test_fast_search_ranks_by_relevance():
    mongo, auth, client = await make_stack()
    fast = fast_search(mongo.address)
    await fast.start()
    try:
        response = await client.get(f"http://{fast.address}/search?q=tv")
        body = response.json()
        assert body["version"] == "fastSearch"
        prices = [r["price"] for r in body["results"]]
        # Non-prefix matches are ordered by ascending price.
        assert prices == sorted(prices)
    finally:
        await close_stack(mongo, auth, client, fast)


async def test_search_falls_back_to_category():
    mongo, auth, client = await make_stack()
    search = SearchService(mongo.address)
    await search.start()
    try:
        # "camera" appears in categories; fixture names say "Camera N".
        response = await client.get(f"http://{search.address}/search?q=camera")
        assert response.status == 200
    finally:
        await close_stack(mongo, auth, client, search)


# -- product -----------------------------------------------------------------------


async def product_stack(version="product", **kwargs):
    mongo, auth, client = await make_stack()
    search = SearchService(mongo.address)
    await search.start()
    if version == "product":
        product = ProductService(mongo.address, auth.address, search.address, **kwargs)
    else:
        product = product_variant(
            version, mongo.address, auth.address, search.address, **kwargs
        )
    await product.start()
    token = auth.issue_token("user0@example.com")
    return mongo, auth, client, search, product, {"Authorization": f"Bearer {token}"}


async def test_product_requires_authorization():
    mongo, auth, client, search, product, headers = await product_stack()
    try:
        response = await client.get(f"http://{product.address}/products")
        assert response.status == 401
        assert product.auth_failures.value == 1
        response = await client.get(
            f"http://{product.address}/products", headers=headers
        )
        assert response.status == 200
    finally:
        await close_stack(mongo, auth, client, search, product)


async def test_product_list_includes_buyers():
    mongo, auth, client, search, product, headers = await product_stack()
    try:
        response = await client.get(
            f"http://{product.address}/products", headers=headers
        )
        products = response.json()["products"]
        assert len(products) == 10
        assert all("buyers" in p for p in products)
    finally:
        await close_stack(mongo, auth, client, search, product)


async def test_product_details_small_body():
    mongo, auth, client, search, product, headers = await product_stack()
    try:
        response = await client.get(
            f"http://{product.address}/products/SKU-0001", headers=headers
        )
        body = response.json()
        assert body["product"]["sku"] == "SKU-0001"
        assert "buyers" not in body["product"]
        response = await client.get(
            f"http://{product.address}/products/SKU-9999", headers=headers
        )
        assert response.status == 404
    finally:
        await close_stack(mongo, auth, client, search, product)


async def test_buy_writes_to_database_and_counts_sale():
    mongo, auth, client, search, product, headers = await product_stack()
    try:
        response = await client.post(
            f"http://{product.address}/products/SKU-0002/buy", headers=headers
        )
        assert response.status == 204
        assert response.body == b""  # Buy: no response body (paper 5.1.2)
        assert product.sales_total.value == 1
        stored = await MongoClient(mongo.address, client).find_one(
            "products", {"sku": "SKU-0002"}
        )
        assert stored["buyers"] == ["user0@example.com"]
    finally:
        await close_stack(mongo, auth, client, search, product)


async def test_buy_unknown_product_404():
    mongo, auth, client, search, product, headers = await product_stack()
    try:
        response = await client.post(
            f"http://{product.address}/products/NOPE/buy", headers=headers
        )
        assert response.status == 404
        assert product.sales_total.value == 0
    finally:
        await close_stack(mongo, auth, client, search, product)


async def test_product_search_delegates_to_search_service():
    mongo, auth, client, search, product, headers = await product_stack()
    try:
        response = await client.get(
            f"http://{product.address}/search?q=Laptop", headers=headers
        )
        assert response.status == 200
        assert response.json()["version"] == "search"
        assert search.searches_total.value == 1
    finally:
        await close_stack(mongo, auth, client, search, product)


async def test_variant_upsell_increases_sales():
    import random

    mongo, auth, client, search, product, headers = await product_stack(
        "product_b", rng=random.Random(1), upsell_rate=1.0
    )
    try:
        await client.post(
            f"http://{product.address}/products/SKU-0001/buy", headers=headers
        )
        assert product.buys_total.value == 1
        assert product.sales_total.value == 2  # item + guaranteed accessory
    finally:
        await close_stack(mongo, auth, client, search, product)


async def test_metrics_endpoint_exposes_instrumentation():
    mongo, auth, client, search, product, headers = await product_stack()
    try:
        await client.get(f"http://{product.address}/products", headers=headers)
        response = await client.get(f"http://{product.address}/metrics")
        text = response.body.decode()
        assert "http_requests_total" in text
        assert 'path="/products"' in text
        assert "http_request_seconds_bucket" in text
    finally:
        await close_stack(mongo, auth, client, search, product)
