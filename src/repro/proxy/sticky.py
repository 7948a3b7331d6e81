"""Sticky session store.

"Depending on whether sticky sessions are used or not, the proxy either
stores the set cookie to re-identify users, or the subsequent request is
again running through the proxy's decision process" (section 4.2.2).

The store maps the proxy-issued client UUID to the version it was first
assigned.  A proxy fronting millions of clients must not let this map grow
without bound: beyond *capacity* entries the least recently used one is
evicted.  An evicted returning client is simply re-bucketed, which the
hash-based assignment keeps consistent while the config is unchanged.
"""

from __future__ import annotations

from collections import OrderedDict


class StickyStore:
    """Bounded LRU of client-id → version assignments."""

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._assignments: OrderedDict[str, str] = OrderedDict()
        #: Entries dropped to stay under *capacity* (observability).
        self.evictions = 0

    def get(self, client_id: str) -> str | None:
        version = self._assignments.get(client_id)
        if version is not None:
            self._assignments.move_to_end(client_id)
        return version

    def assign(self, client_id: str, version: str) -> None:
        assignments = self._assignments
        if client_id in assignments:
            assignments.move_to_end(client_id)
        assignments[client_id] = version
        while len(assignments) > self.capacity:
            assignments.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._assignments.clear()

    def __len__(self) -> int:
        return len(self._assignments)

    def __contains__(self, client_id: object) -> bool:
        return client_id in self._assignments
