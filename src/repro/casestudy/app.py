"""Assembly of the 7-service case-study application (paper Figure 5).

Topology (matching the paper's deployment):

* ``nginx`` (our :class:`~repro.cluster.gateway.Gateway`) is the central
  entry point: ``/`` goes to the frontend; ``/products`` and ``/search``
  go to the product service.
* The **product** service exists in three versions (``product``,
  ``product_a``, ``product_b``) behind one Bifrost proxy.
* The **search** service exists in two versions (``search``,
  ``fastSearch``) behind a second Bifrost proxy; product's search
  endpoint calls through that proxy.
* The **auth** service has *no* proxy — "This simulates the case of a
  stable service for which currently no live testing strategy is
  executed."
* **MongoDB** (our :class:`~repro.casestudy.documents.MongoServer`) and
  **Prometheus** (our :class:`~repro.metrics.server.MetricsServer`,
  scraping every service cAdvisor-style) complete the picture.

``proxies=False`` builds the *baseline* deployment of the overhead
experiment: no middleware at all, gateway and product talk to the stable
versions directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..cluster import Gateway
from ..dsl.deployment import DeployedService, Deployment
from ..httpcore import HttpServer
from ..metrics import MetricsServer
from ..proxy import BifrostProxy
from .auth import AuthService
from .documents import MongoClient, MongoServer
from .fixtures import load_fixtures
from .frontend import FrontendService
from .product import ProductService, product_variant
from .search import SearchService, fast_search


@dataclass
class CaseStudyApp:
    """Handles to every running component of the case study."""

    mongo: MongoServer
    auth: AuthService
    frontend: FrontendService
    gateway: Gateway
    metrics: MetricsServer | None
    product_versions: dict[str, ProductService]
    search_versions: dict[str, SearchService]
    product_proxy: BifrostProxy | None
    search_proxy: BifrostProxy | None
    _order: list[HttpServer] = field(default_factory=list)

    @property
    def entry_address(self) -> str:
        """Where end users (the load generator) connect."""
        return self.gateway.address

    def endpoints(self, service: str) -> dict[str, str]:
        """Version name → address for one proxied service."""
        versions = (
            self.product_versions if service == "product" else self.search_versions
        )
        return {name: server.address for name, server in versions.items()}

    def deployment(self) -> Deployment:
        """The DSL deployment section matching this running topology."""
        if self.product_proxy is None or self.search_proxy is None:
            raise RuntimeError("deployment() requires the proxied topology")
        deployment = Deployment()
        deployment.services["product"] = DeployedService(
            name="product",
            proxy=self.product_proxy.address,
            stable="product",
            versions=self.endpoints("product"),
        )
        deployment.services["search"] = DeployedService(
            name="search",
            proxy=self.search_proxy.address,
            stable="search",
            versions=self.endpoints("search"),
        )
        return deployment

    async def issue_token(self, email: str = "user0@example.com") -> str:
        """Mint a valid auth token for driving the app."""
        return self.auth.issue_token(email)

    async def stop(self) -> None:
        for server in reversed(self._order):
            if server.running:
                await server.stop()


async def build_case_study(
    proxies: bool = True,
    variants: bool = True,
    db_delay: float = 0.0,
    products: int = 40,
    users: int = 20,
    scrape_interval: float = 0.5,
    metrics: bool = True,
    seed: int = 7,
    queue_factor: float = 0.4,
) -> CaseStudyApp:
    """Build, start, and populate the whole application.

    ``proxies=False`` gives the baseline topology; ``variants=False``
    skips product_a/product_b and fastSearch (not needed by every test).
    """
    order: list[HttpServer] = []

    async def up(server):
        await server.start()
        order.append(server)
        return server

    rng = random.Random(seed)
    mongo = await up(MongoServer(op_delay=db_delay))
    auth = await up(AuthService(mongo_address=mongo.address))

    search_versions: dict[str, SearchService] = {
        "search": await up(SearchService(mongo.address))
    }
    if variants:
        search_versions["fastSearch"] = await up(fast_search(mongo.address))

    search_proxy: BifrostProxy | None = None
    search_upstream = search_versions["search"].address
    if proxies:
        search_proxy = await up(
            BifrostProxy(
                "search",
                default_upstream=search_versions["search"].address,
                rng=random.Random(rng.random()),
            )
        )
        search_upstream = search_proxy.address

    product_versions: dict[str, ProductService] = {
        "product": await up(
            ProductService(
                mongo.address,
                auth.address,
                search_upstream,
                rng=random.Random(rng.random()),
                queue_factor=queue_factor,
            )
        )
    }
    if variants:
        for name in ("product_a", "product_b"):
            product_versions[name] = await up(
                product_variant(
                    name,
                    mongo.address,
                    auth.address,
                    search_upstream,
                    rng=random.Random(rng.random()),
                    queue_factor=queue_factor,
                )
            )

    product_proxy: BifrostProxy | None = None
    product_upstream = product_versions["product"].address
    if proxies:
        product_proxy = await up(
            BifrostProxy(
                "product",
                default_upstream=product_versions["product"].address,
                rng=random.Random(rng.random()),
            )
        )
        product_upstream = product_proxy.address

    frontend = await up(FrontendService())
    gateway = await up(Gateway())
    gateway.add_route("/products", product_upstream)
    gateway.add_route("/search", product_upstream)
    gateway.add_route("/auth", auth.address)
    gateway.add_route("/", frontend.address)

    metrics_server: MetricsServer | None = None
    if metrics:
        metrics_server = MetricsServer(scrape_interval=scrape_interval)
        for name, server in {
            "auth": auth,
            "frontend": frontend,
            **search_versions,
            **product_versions,
        }.items():
            metrics_server.scraper.add_local(name, server.registry)
        # The proxies are services too: their self-instrumentation lets
        # strategies (or operators) watch the middleware itself.
        if product_proxy is not None:
            metrics_server.scraper.add_local("product-proxy", product_proxy.registry)
        if search_proxy is not None:
            metrics_server.scraper.add_local("search-proxy", search_proxy.registry)
        await metrics_server.start(scrape=True)
        order.append(metrics_server)

    await load_fixtures(MongoClient(mongo.address, auth.http), products, users)

    return CaseStudyApp(
        mongo=mongo,
        auth=auth,
        frontend=frontend,
        gateway=gateway,
        metrics=metrics_server,
        product_versions=product_versions,
        search_versions=search_versions,
        product_proxy=product_proxy,
        search_proxy=search_proxy,
        _order=order,
    )
