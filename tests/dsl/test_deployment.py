"""Tests for the DSL deployment section."""

import pytest

from repro.dsl import Deployment, DslError, loads
from repro.dsl.deployment import parse_service, services_section

VALID = """
services:
  search:
    proxy: 127.0.0.1:7001
    stable: search
    versions:
      search: 127.0.0.1:9001
      fastSearch: 127.0.0.1:9002
  product:
    proxy: 127.0.0.1:7002
    versions:
      product: 127.0.0.1:9003
"""


def parse_deployment(raw):
    """A deployment part read the way the compiler reads it."""
    return Deployment(
        {
            name: parse_service(name, body, f"deployment.services.{name}")
            for name, body in services_section(raw).items()
        }
    )


def test_parse_valid_deployment():
    deployment = parse_deployment(loads(VALID))
    search = deployment.service("search")
    assert search.proxy == "127.0.0.1:7001"
    assert search.stable == "search"
    assert search.versions["fastSearch"] == "127.0.0.1:9002"
    assert deployment.proxies() == {
        "search": "127.0.0.1:7001",
        "product": "127.0.0.1:7002",
    }


def test_stable_defaults_to_first_version():
    deployment = parse_deployment(loads(VALID))
    assert deployment.service("product").stable == "product"


def test_unknown_service_and_version_lookups_raise():
    deployment = parse_deployment(loads(VALID))
    with pytest.raises(DslError):
        deployment.service("ghost")


def test_rejects_empty_services():
    with pytest.raises(DslError):
        parse_deployment({"services": {}})


def test_rejects_service_without_versions():
    with pytest.raises(DslError):
        parse_deployment(
            {"services": {"s": {"proxy": "h:1", "versions": {}}}}
        )


def test_rejects_service_without_proxy():
    with pytest.raises(DslError):
        parse_deployment({"services": {"s": {"versions": {"v": "h:1"}}}})


def test_rejects_stable_not_in_versions():
    with pytest.raises(DslError):
        parse_deployment(
            {
                "services": {
                    "s": {"proxy": "h:1", "stable": "ghost", "versions": {"v": "h:2"}}
                }
            }
        )


def test_rejects_unknown_keys():
    with pytest.raises(DslError) as exc_info:
        parse_deployment(
            {
                "services": {
                    "s": {"proxy": "h:1", "verison": {}, "versions": {"v": "h:2"}}
                }
            }
        )
    assert "verison" in str(exc_info.value)


def test_rejects_non_mapping():
    with pytest.raises(DslError):
        parse_deployment(["not", "a", "mapping"])
