"""The DSL's deployment part.

"The former takes a list of key-value pairs mapping host names of services
to host names of corresponding Bifrost proxy instances" (section 4.2.2).
We extend that mapping with the version endpoints (the model's static
configuration sc_i) and each service's designated *stable* version, which
route directives split traffic away from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import DslError
from .schema import expect_map, expect_str, reject_unknown_keys, str_field
from .yaml_lite import key_line, node_line


@dataclass
class DeployedService:
    """One service's deployment facts: proxy address, versions, stable."""

    name: str
    proxy: str  # host:port of the Bifrost proxy fronting this service
    stable: str  # version name receiving unrouted traffic
    versions: dict[str, str] = field(default_factory=dict)  # name -> host:port


@dataclass
class Deployment:
    """All deployment facts referenced by a strategy document."""

    services: dict[str, DeployedService] = field(default_factory=dict)

    def service(self, name: str) -> DeployedService:
        try:
            return self.services[name]
        except KeyError:
            raise DslError(
                f"deployment does not declare service {name!r}; "
                f"known: {sorted(self.services)}"
            ) from None

    def proxies(self) -> dict[str, str]:
        """service name → proxy address, for the engine's controller."""
        return {name: service.proxy for name, service in self.services.items()}


def services_section(raw: Any, path: str = "deployment") -> dict[str, Any]:
    """The ``services`` mapping of a ``deployment`` part, still unparsed."""
    mapping = expect_map(raw, path)
    reject_unknown_keys(mapping, {"services"}, path)
    services = expect_map(mapping.get("services", {}), f"{path}.services")
    if not services:
        raise DslError(
            "needs at least one service", f"{path}.services", node_line(mapping)
        )
    return services


def parse_service(name: str, raw: Any, path: str) -> DeployedService:
    """Parse one service of the deployment part."""
    service_map = expect_map(raw, path)
    reject_unknown_keys(service_map, {"proxy", "stable", "versions"}, path)
    versions_raw = expect_map(service_map.get("versions", {}), f"{path}.versions")
    if not versions_raw:
        raise DslError(
            "needs at least one version", f"{path}.versions", node_line(service_map)
        )
    versions = {
        version: expect_str(endpoint, f"{path}.versions.{version}")
        for version, endpoint in versions_raw.items()
    }
    stable = str_field(service_map, "stable", path, default=next(iter(versions)))
    if stable not in versions:
        raise DslError(
            f"stable version {stable!r} is not among versions {sorted(versions)}",
            path,
            key_line(service_map, "stable"),
        )
    return DeployedService(
        name=name,
        proxy=str_field(service_map, "proxy", path),
        stable=stable,
        versions=versions,
    )
