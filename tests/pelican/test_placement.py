"""Placement-layer tests (DESIGN.md §9).

The cluster's determinism guarantee starts here: the same ``(seed, user
set, shard count)`` must always produce the identical placement map, for
every policy, across fresh policy instances.
"""

import pytest

from repro.pelican import (
    PLACEMENT_POLICIES,
    HashPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    make_placement,
)

USERS = list(range(40))


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(PLACEMENT_POLICIES))
    @pytest.mark.parametrize("num_shards", [1, 3, 5])
    def test_same_inputs_same_map(self, name, num_shards):
        """Fresh instances with identical inputs agree exactly."""
        a = make_placement(name, seed=7, num_shards=num_shards)
        b = make_placement(name, seed=7, num_shards=num_shards)
        assert a.placement_map(USERS) == b.placement_map(USERS)

    @pytest.mark.parametrize("name", sorted(PLACEMENT_POLICIES))
    def test_map_independent_of_user_iteration_order(self, name):
        """The map is a function of the user *set*, not presentation order."""
        a = make_placement(name, seed=7, num_shards=3)
        b = make_placement(name, seed=7, num_shards=3)
        assert a.placement_map(USERS) == b.placement_map(list(reversed(USERS)))

    def test_seed_changes_hash_map(self):
        maps = [
            HashPlacement(seed, 4).placement_map(USERS) for seed in range(4)
        ]
        assert any(m != maps[0] for m in maps[1:])

    @pytest.mark.parametrize("name", sorted(PLACEMENT_POLICIES))
    def test_lookup_is_stable(self, name):
        """Repeated lookups of one user never move them."""
        policy = make_placement(name, seed=3, num_shards=4)
        first = [policy.shard_for(uid) for uid in USERS]
        assert [policy.shard_for(uid) for uid in USERS] == first


class TestHashRing:
    def test_all_shards_receive_users(self):
        placement = HashPlacement(seed=0, num_shards=4)
        shards = set(placement.placement_map(range(200)).values())
        assert shards == set(range(4))

    def test_shards_in_range(self):
        placement = HashPlacement(seed=0, num_shards=3)
        assert all(0 <= s < 3 for s in placement.placement_map(USERS).values())

    def test_consistency_under_shard_growth(self):
        """Growing the ring moves only some users — the consistent-hashing
        property that makes resharding cheap."""
        before = HashPlacement(seed=5, num_shards=4).placement_map(range(300))
        after = HashPlacement(seed=5, num_shards=5).placement_map(range(300))
        moved = sum(1 for uid in before if before[uid] != after[uid])
        # Users never move between surviving shards, only onto the new
        # one; expectation is ~1/5 of the population.
        assert 0 < moved < 150
        for uid in before:
            if before[uid] != after[uid]:
                assert after[uid] == 4

    def test_successors_cover_every_shard_once(self):
        placement = HashPlacement(seed=2, num_shards=5)
        for uid in range(20):
            order = placement.successors(uid)
            assert sorted(order) == list(range(5))
            assert order[0] == placement.shard_for(uid)


class TestLeastLoaded:
    def test_balances_within_one(self):
        placement = LeastLoadedPlacement(seed=0, num_shards=3)
        placement.placement_map(USERS)
        assert max(placement.loads) - min(placement.loads) <= 1
        assert sum(placement.loads) == len(USERS)

    def test_assignment_depends_on_arrival_order(self):
        """Stateful by design: the live policy assigns in arrival order."""
        a = LeastLoadedPlacement(seed=0, num_shards=2)
        order_a = [a.shard_for(uid) for uid in (1, 2, 3, 4)]
        b = LeastLoadedPlacement(seed=0, num_shards=2)
        order_b = [b.shard_for(uid) for uid in (4, 3, 2, 1)]
        assert order_a == order_b == [0, 1, 0, 1]  # round robin from empty


class TestValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="unknown placement policy"):
            make_placement("round_trip", seed=0, num_shards=2)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            HashPlacement(seed=0, num_shards=0)

    def test_base_policy_is_abstract(self):
        with pytest.raises(NotImplementedError):
            PlacementPolicy(seed=0, num_shards=1).shard_for(0)
