"""Routing decisions: which version serves this request?

Implements the proxy's two filter modes (paper section 4.2.2):

* **cookie-based** — the proxy buckets clients itself.  Each client is
  identified by an RFC-4122 UUID cookie the proxy issues; the UUID is
  hashed against the traffic split, so the same client consistently maps
  to the same bucket while the configuration is unchanged.  With sticky
  sessions the first assignment is also memoized, surviving later
  percentage changes (important for A/B tests).
* **header-based** — "the proxy itself does not decide to which service
  instance a request is routed, it acts solely on its configuration":
  an upstream component injects a header naming the version group, and the
  proxy dispatches on it, falling back to the default (first) split when
  the header is absent or names an unknown version.

Shadow (dark launch) decisions are sampled per request with an injectable
RNG so tests stay deterministic.
"""

from __future__ import annotations

import random
import uuid
from dataclasses import dataclass

from ..core.routing import FilterKind, RoutingConfig, ShadowRoute
from ..httpcore import Request
from .plan import RoutingPlan
from .sticky import StickyStore

#: Name of the client-identifying cookie the proxy issues.
CLIENT_COOKIE = "bifrost_client"


@dataclass
class RoutingDecision:
    """Outcome of the filter chain for one request."""

    version: str
    client_id: str | None = None  # UUID bound to the client (cookie mode)
    set_cookie: bool = False  # the response must issue the cookie
    shadows: list[ShadowRoute] | None = None  # duplications to perform


class FilterChain:
    """Applies one service's routing configuration to requests."""

    def __init__(
        self,
        config: RoutingConfig,
        sticky_store: StickyStore | None = None,
        seed: str = "bifrost",
        rng: random.Random | None = None,
    ):
        self.plan = RoutingPlan(config, seed=seed)  # validates the config
        self.config = config
        # "or" would discard an *empty* store (StickyStore is sized).
        self.sticky_store = sticky_store if sticky_store is not None else StickyStore()
        self.rng = rng or random.Random()

    def decide(self, request: Request) -> RoutingDecision:
        plan = self.plan
        if self.config.filter_kind is FilterKind.HEADER:
            decision = RoutingDecision(
                version=plan.version_for_group(request.headers.get(plan.header_name))
            )
        else:
            decision = self._decide_by_cookie(request)
        decision.shadows = plan.select_shadows(decision.version, self.rng)
        return decision

    def _decide_by_cookie(self, request: Request) -> RoutingDecision:
        plan = self.plan
        client_id = request.cookies.get(CLIENT_COOKIE)
        issue_cookie = False
        if not client_id:
            client_id = str(uuid.uuid4())
            issue_cookie = True
        if plan.sticky:
            remembered = self.sticky_store.get(client_id)
            if remembered is not None and remembered in plan.known_versions:
                return RoutingDecision(
                    version=remembered, client_id=client_id, set_cookie=issue_cookie
                )
        version = plan.bucket(client_id)
        if plan.sticky:
            self.sticky_store.assign(client_id, version)
        return RoutingDecision(
            version=version, client_id=client_id, set_cookie=issue_cookie
        )
