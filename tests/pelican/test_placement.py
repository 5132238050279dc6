"""Placement-layer tests (DESIGN.md §9).

The cluster's determinism guarantee starts here: the same ``(seed, user
set, shard count)`` must always produce the identical placement map
across fresh placement instances.
"""

from bisect import bisect_left

import pytest

from repro.pelican import HashPlacement

USERS = list(range(40))


class TestDeterminism:
    @pytest.mark.parametrize("num_shards", [1, 3, 5])
    def test_same_inputs_same_map(self, num_shards):
        """Fresh instances with identical inputs agree exactly."""
        a = HashPlacement(seed=7, num_shards=num_shards)
        b = HashPlacement(seed=7, num_shards=num_shards)
        assert a.placement_map(USERS) == b.placement_map(USERS)

    def test_map_independent_of_user_iteration_order(self):
        """The map is a function of the user *set*, not presentation order."""
        a = HashPlacement(seed=7, num_shards=3)
        b = HashPlacement(seed=7, num_shards=3)
        assert a.placement_map(USERS) == b.placement_map(list(reversed(USERS)))

    def test_seed_changes_hash_map(self):
        maps = [
            HashPlacement(seed, 4).placement_map(USERS) for seed in range(4)
        ]
        assert any(m != maps[0] for m in maps[1:])

    def test_lookup_is_stable(self):
        """Repeated lookups of one user never move them."""
        placement = HashPlacement(seed=3, num_shards=4)
        first = [placement.shard_for(uid) for uid in USERS]
        assert [placement.shard_for(uid) for uid in USERS] == first

    @pytest.mark.parametrize("num_shards", range(1, 9))
    def test_remembered_answers_match_a_fresh_instance(self, num_shards):
        """Lookups answered from the per-user memo equal the ring walks of
        a fresh instance, and the home shard is the first ring point
        clockwise of the user's position."""
        ids = range(1000)
        warm = HashPlacement(seed=11, num_shards=num_shards)
        for uid in ids:
            warm.successors(uid)
        remembered = {uid: (warm.shard_for(uid), warm.successors(uid)) for uid in ids}
        fresh = HashPlacement(seed=11, num_shards=num_shards)
        walked = {
            uid: (fresh.shard_for(uid), fresh.successors(uid)) for uid in reversed(ids)
        }
        assert remembered == walked
        points = fresh._points
        positions = [pos for pos, _ in points]
        for uid in ids:
            idx = bisect_left(positions, fresh.user_position(uid))
            assert remembered[uid][0] == points[idx % len(points)][1]


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


class TestValidation:
    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            HashPlacement(seed=0, num_shards=0)

