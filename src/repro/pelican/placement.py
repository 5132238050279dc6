"""Deterministic user -> shard placement for the cluster layer (DESIGN.md §9).

A :class:`~repro.pelican.cluster.Cluster` spreads personal models over N
shards; :class:`HashPlacement` decides *which* shard owns each user, by
consistent hashing.  Every shard owns :data:`VNODES` points on the unit
ring, each drawn from ``default_rng((seed, stream, shard))``; a user
hashes to ``default_rng((seed, stream, user_id))`` and lands on the
first shard point clockwise.  Placement depends only on ``(seed,
user_id, num_shards)``, so the same inputs always produce the identical
placement map and cluster runs stay bit-reproducible (the determinism
tests in ``tests/pelican/test_placement.py`` pin this).  Growing the
shard count only moves the users whose arc gained a nearer point.

A cluster never changes its shard count, so a placement never moves a
user: each user's ring walk is computed once and remembered.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Tuple

import numpy as np

#: Stable stream ids for placement RNG derivation (never renumber:
#: committed placement maps and golden cluster runs depend on them).
_STREAM_RING = 11
_STREAM_USER = 12

#: Ring points per shard.
VNODES = 64


class HashPlacement:
    """Consistent hashing over a seeded unit ring."""

    def __init__(self, seed: int, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.seed = int(seed)
        self.num_shards = int(num_shards)
        points: List[Tuple[float, int]] = []
        for shard in range(num_shards):
            rng = np.random.default_rng((self.seed, _STREAM_RING, shard))
            points.extend((float(pos), shard) for pos in rng.random(VNODES))
        points.sort()
        self._points = points
        self._positions = [pos for pos, _ in points]
        #: ``user_id -> successors(user_id)``, filled on first lookup.
        self._orders: Dict[int, Tuple[int, ...]] = {}

    def user_position(self, user_id: int) -> float:
        """The user's stable position on the unit ring."""
        return float(
            np.random.default_rng((self.seed, _STREAM_USER, int(user_id))).random()
        )

    def shard_for(self, user_id: int) -> int:
        """The shard owning ``user_id``."""
        return self.successors(user_id)[0]

    def successors(self, user_id: int) -> Tuple[int, ...]:
        """Every shard in ring order from the user's position.

        The first element is the home shard; the rest is the (complete,
        deterministic) failover preference order.
        """
        order = self._orders.get(user_id)
        if order is None:
            start = bisect_left(self._positions, self.user_position(user_id))
            seen: List[int] = []
            for offset in range(len(self._points)):
                shard = self._points[(start + offset) % len(self._points)][1]
                if shard not in seen:
                    seen.append(shard)
                    if len(seen) == self.num_shards:
                        break
            order = self._orders[user_id] = tuple(seen)
        return order

    def placement_map(self, user_ids: Iterable[int]) -> Dict[int, int]:
        """The full assignment for a user population, in sorted-id order."""
        return {uid: self.shard_for(uid) for uid in sorted(user_ids)}
