"""Tests for the nginx-like gateway."""

import pytest

from repro.cluster import Gateway
from repro.httpcore import HttpClient, HttpServer, Response


def upstream(tag: str) -> HttpServer:
    server = HttpServer(name=tag)

    async def handler(request):
        return Response.from_json({"tag": tag, "path": request.path})

    server.router.set_fallback(handler)
    return server


async def test_longest_prefix_wins():
    front = upstream("frontend")
    product = upstream("product")
    await front.start()
    await product.start()
    gateway = Gateway()
    gateway.add_route("/", front.address)
    gateway.add_route("/products", product.address)
    await gateway.start()
    try:
        async with HttpClient() as client:
            response = await client.get(f"http://{gateway.address}/products/1")
            assert response.json()["tag"] == "product"
            response = await client.get(f"http://{gateway.address}/index.html")
            assert response.json()["tag"] == "frontend"
    finally:
        await gateway.stop()
        await front.stop()
        await product.stop()


async def test_no_route_is_404():
    gateway = Gateway()
    gateway.add_route("/api", "127.0.0.1:1")
    await gateway.start()
    try:
        async with HttpClient() as client:
            response = await client.get(f"http://{gateway.address}/other")
            assert response.status == 404
    finally:
        await gateway.stop()


async def test_dead_upstream_is_502():
    gateway = Gateway()
    gateway.add_route("/", "127.0.0.1:1")
    await gateway.start()
    try:
        async with HttpClient() as client:
            response = await client.get(f"http://{gateway.address}/x")
            assert response.status == 502
    finally:
        await gateway.stop()


def test_prefix_must_start_with_slash():
    with pytest.raises(ValueError):
        Gateway().add_route("products", "h:1")


def test_upstream_for():
    gateway = Gateway()
    gateway.add_route("/", "front:1")
    gateway.add_route("/api/v1", "api:1")
    assert gateway.upstream_for("/api/v1/things") == ("/api/v1", "api:1", "api", 1)
    assert gateway.upstream_for("/api") == ("/", "front:1", "front", 1)
    assert Gateway().upstream_for("/x") is None


def test_a_bad_upstream_fails_in_add_route():
    gateway = Gateway()
    for bad in ["", ":80", "h:", "h:+80", "h:0", "h:65536"]:
        with pytest.raises(ValueError):
            gateway.add_route("/", bad)
    assert gateway.upstream_for("/") is None


async def test_a_request_does_not_parse_its_upstream(monkeypatch):
    import repro.cluster.gateway as module

    front = upstream("frontend")
    await front.start()
    gateway = Gateway()
    gateway.add_route("/", front.address)
    await gateway.start()
    calls = []
    monkeypatch.setattr(module, "parse_endpoint", lambda text: calls.append(text))
    try:
        async with HttpClient() as client:
            response = await client.get(f"http://{gateway.address}/x")
            assert response.json()["tag"] == "frontend"
    finally:
        await gateway.stop()
        await front.stop()
    assert calls == []
