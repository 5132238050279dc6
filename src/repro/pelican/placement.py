"""Deterministic user -> shard placement for the cluster layer (DESIGN.md §9).

A :class:`~repro.pelican.cluster.Cluster` spreads personal models over N
shards; this module decides *which* shard owns each user.  All policies
are seeded and order-stable: the same ``(seed, user set, shard count)``
always produces the identical placement map, so cluster runs stay
bit-reproducible (the determinism tests in
``tests/pelican/test_placement.py`` pin this).

Two pluggable policies:

* **hash** — consistent hashing.  Every shard owns ``vnodes`` points on
  the unit ring, each drawn from ``default_rng((seed, stream, shard,
  replica))``; a user hashes to ``default_rng((seed, stream, user_id))``
  and lands on the first shard point clockwise.  Stateless and pure:
  placement depends only on ``(seed, user_id, num_shards)``, and growing
  the shard count only moves the users whose arc gained a nearer point.
* **least_loaded** — assignment-time balancing: a new user goes to the
  shard currently owning the fewest users (ties break toward the lowest
  shard id).  Deterministic given the onboarding order — which the event
  clock already fixes.

A cluster never changes its shard count, so a hash placement never
moves a user: it is already sticky.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Tuple

import numpy as np

#: Stable stream ids for placement RNG derivation (never renumber:
#: committed placement maps and golden cluster runs depend on them).
_STREAM_RING = 11
_STREAM_USER = 12


class PlacementPolicy:
    """Base class: a deterministic ``user_id -> shard`` assignment."""

    name = "base"

    def __init__(self, seed: int, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.seed = int(seed)
        self.num_shards = int(num_shards)

    def shard_for(self, user_id: int) -> int:
        """The shard owning ``user_id`` (assigning it if unseen)."""
        raise NotImplementedError

    def placement_map(self, user_ids: Iterable[int]) -> Dict[int, int]:
        """The full assignment for a user population.

        Stateful policies assign in sorted-id order, so the map is a pure
        function of ``(seed, user set, shard count)`` — the determinism
        guarantee the tests compare across fresh policy instances.
        """
        return {uid: self.shard_for(uid) for uid in sorted(user_ids)}


class HashPlacement(PlacementPolicy):
    """Consistent hashing over a seeded unit ring."""

    name = "hash"

    def __init__(self, seed: int, num_shards: int, vnodes: int = 64) -> None:
        super().__init__(seed, num_shards)
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        self.vnodes = vnodes
        points: List[Tuple[float, int]] = []
        for shard in range(num_shards):
            rng = np.random.default_rng((self.seed, _STREAM_RING, shard))
            points.extend((float(pos), shard) for pos in rng.random(vnodes))
        points.sort()
        self._points = points
        self._positions = [pos for pos, _ in points]

    def user_position(self, user_id: int) -> float:
        """The user's stable position on the unit ring."""
        return float(
            np.random.default_rng((self.seed, _STREAM_USER, int(user_id))).random()
        )

    def shard_for(self, user_id: int) -> int:
        idx = bisect_left(self._positions, self.user_position(user_id))
        if idx == len(self._points):
            idx = 0  # wrap past the last point
        return self._points[idx][1]

    def successors(self, user_id: int) -> List[int]:
        """Every shard in ring order from the user's position.

        The first element is the home shard; the rest is the (complete,
        deterministic) failover preference order.
        """
        start = bisect_left(self._positions, self.user_position(user_id))
        seen: List[int] = []
        for offset in range(len(self._points)):
            shard = self._points[(start + offset) % len(self._points)][1]
            if shard not in seen:
                seen.append(shard)
                if len(seen) == self.num_shards:
                    break
        return seen


class LeastLoadedPlacement(PlacementPolicy):
    """Assignment-time balancing by current per-shard user count."""

    name = "least_loaded"

    def __init__(self, seed: int, num_shards: int) -> None:
        super().__init__(seed, num_shards)
        self.loads: List[int] = [0] * num_shards
        self.pins: Dict[int, int] = {}

    def shard_for(self, user_id: int) -> int:
        if user_id not in self.pins:
            shard = min(range(self.num_shards), key=lambda s: (self.loads[s], s))
            self.loads[shard] += 1
            self.pins[user_id] = shard
        return self.pins[user_id]


#: Policy registry keyed by CLI-facing names.
PLACEMENT_POLICIES = {
    HashPlacement.name: HashPlacement,
    LeastLoadedPlacement.name: LeastLoadedPlacement,
}


def make_placement(name: str, seed: int, num_shards: int) -> PlacementPolicy:
    """Instantiate a placement policy by name."""
    try:
        cls = PLACEMENT_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown placement policy {name!r}; "
            f"available: {sorted(PLACEMENT_POLICIES)}"
        ) from None
    return cls(seed, num_shards)
