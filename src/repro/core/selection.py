"""The stable hash behind the user selection function η : U → V.

Each state's user mappings are "built and controlled by the state's
function η, which assigns a specific user u_i to a version v_j" (section
3.2).  In Bifrost, η is :meth:`repro.proxy.plan.RoutingPlan.bucket`: the
proxy hashes the user's proxy-issued id against the cumulative traffic
split.  This module holds the hash, so that the same user always lands in
the same bucket — the property that makes A/B assignments stable across
sessions.  For header-based routing an external component runs η and
injects the group header the proxy dispatches on.
"""

from __future__ import annotations

import hashlib


def stable_fraction(user_id: str, seed: str) -> float:
    """Map (user, seed) to a deterministic fraction in [0, 1).

    Uses the first 8 bytes of SHA-256 — uniform enough for traffic
    splitting and completely reproducible, which experiments need.
    """
    digest = hashlib.sha256(f"{seed}:{user_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64
