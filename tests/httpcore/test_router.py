"""Unit tests for path-pattern routing."""

import pytest

from repro.httpcore import Request, Response, RouteNotFound, Router, compile_pattern


async def ok_handler(request):
    return Response.text("ok")


def test_compile_pattern_static():
    pattern = compile_pattern("/products")
    assert pattern.match("/products")
    assert not pattern.match("/products/1")
    assert not pattern.match("/product")


def test_compile_pattern_with_params():
    pattern = compile_pattern("/products/{id}/reviews/{review_id}")
    match = pattern.match("/products/42/reviews/7")
    assert match is not None
    assert match.groupdict() == {"id": "42", "review_id": "7"}


def test_compile_pattern_param_does_not_cross_segments():
    pattern = compile_pattern("/products/{id}")
    assert pattern.match("/products/1/extra") is None


def test_compile_pattern_requires_leading_slash():
    with pytest.raises(ValueError):
        compile_pattern("products")


def test_resolve_matches_method_and_path():
    router = Router()
    router.add("GET", "/a", ok_handler)
    request = Request("GET", "/a")
    assert router.resolve(request) is ok_handler


def test_resolve_fills_path_params():
    router = Router()
    router.add("GET", "/products/{id}", ok_handler)
    request = Request("GET", "/products/42")
    router.resolve(request)
    assert request.path_params == {"id": "42"}


def test_resolve_wrong_method_raises():
    router = Router()
    router.add("POST", "/a", ok_handler)
    with pytest.raises(RouteNotFound):
        router.resolve(Request("GET", "/a"))


def test_resolve_uses_fallback_when_set():
    router = Router()

    async def fallback(request):
        return Response.text("fallback")

    router.set_fallback(fallback)
    assert router.resolve(Request("GET", "/anything")) is fallback


def test_resolve_prefers_registered_route_over_fallback():
    router = Router()

    async def fallback(request):
        return Response.text("fallback")

    router.add("GET", "/a", ok_handler)
    router.set_fallback(fallback)
    assert router.resolve(Request("GET", "/a")) is ok_handler


def test_first_matching_route_wins():
    router = Router()

    async def second(request):
        return Response.text("second")

    router.add("GET", "/x/{p}", ok_handler)
    router.add("GET", "/x/static", second)
    assert router.resolve(Request("GET", "/x/static")) is ok_handler


def test_decorator_registration():
    router = Router()

    @router.get("/g")
    async def get_handler(request):
        return Response.text("g")

    @router.post("/p")
    async def post_handler(request):
        return Response.text("p")

    @router.put("/u")
    async def put_handler(request):
        return Response.text("u")

    @router.delete("/d")
    async def delete_handler(request):
        return Response.text("d")

    assert router.resolve(Request("GET", "/g")) is get_handler
    assert router.resolve(Request("POST", "/p")) is post_handler
    assert router.resolve(Request("PUT", "/u")) is put_handler
    assert router.resolve(Request("DELETE", "/d")) is delete_handler


def test_resolve_ignores_query_string():
    router = Router()
    router.add("GET", "/a", ok_handler)
    assert router.resolve(Request("GET", "/a?x=1")) is ok_handler
