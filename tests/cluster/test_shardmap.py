"""The shard map: epochs, range tiling, splits, wire round-trips."""

from __future__ import annotations

import pytest

from repro.cluster.errors import ShardMapError
from repro.cluster.shardmap import ShardInfo, ShardMap
from repro.core.sharding import HASH_SPACE, default_hash, shard_ranges


class TestConstruction:
    def test_initial_map_tiles_the_hash_space(self):
        shard_map = ShardMap.initial(
            {"s0": "h:1", "s1": "h:2", "s2": "h:3"}
        )
        assert shard_map.epoch == 1
        assert [s.shard_id for s in shard_map.shards] == ["s0", "s1", "s2"]
        assert [s.ranges[0] for s in shard_map.shards] == list(
            shard_ranges(3)
        )

    def test_every_hash_has_exactly_one_owner(self):
        shard_map = ShardMap.initial({"s0": "h:1", "s1": "h:2"})
        for h in (0, 1, HASH_SPACE // 2 - 1, HASH_SPACE // 2, HASH_SPACE - 1):
            owners = [s for s in shard_map.shards if s.owns(h)]
            assert len(owners) == 1

    def test_gap_in_ranges_is_rejected(self):
        with pytest.raises(ShardMapError, match="gap"):
            ShardMap(
                1,
                (
                    ShardInfo("s0", "h:1", ((0, 10),)),
                    ShardInfo("s1", "h:2", ((11, HASH_SPACE),)),
                ),
            )

    def test_overlap_is_rejected(self):
        with pytest.raises(ShardMapError, match="overlap"):
            ShardMap(
                1,
                (
                    ShardInfo("s0", "h:1", ((0, 10),)),
                    ShardInfo("s1", "h:2", ((9, HASH_SPACE),)),
                ),
            )

    def test_duplicate_shard_ids_are_rejected(self):
        with pytest.raises(ShardMapError):
            ShardMap(
                1,
                (
                    ShardInfo("s0", "h:1", ((0, HASH_SPACE),)),
                    ShardInfo("s0", "h:2", ()),
                ),
            )


class TestRouting:
    def test_owner_of_matches_hash_ranges(self):
        shard_map = ShardMap.initial({"s0": "h:1", "s1": "h:2"})
        for component in ("alice", "bob", "svc", "a/b is not a component"):
            owner = shard_map.owner_of(component)
            assert owner.owns(default_hash(component))

    def test_unknown_shard_id_raises(self):
        shard_map = ShardMap.initial({"s0": "h:1"})
        with pytest.raises(ShardMapError):
            shard_map.shard("nope")


class TestEvolution:
    def test_with_shard_admits_an_empty_shard(self):
        shard_map = ShardMap.initial({"s0": "h:1"})
        grown = shard_map.with_shard("s1", "h:2")
        assert grown.epoch == 2
        assert grown.shard("s1").ranges == ()
        assert grown.shard("s0").ranges == ((0, HASH_SPACE),)

    def test_split_range_halves_the_widest_range(self):
        shard_map = ShardMap.initial({"s0": "h:1"})
        lo, hi = shard_map.split_range("s0")
        assert (lo, hi) == (HASH_SPACE // 2, HASH_SPACE)

    def test_with_range_moved_preserves_the_tiling(self):
        shard_map = ShardMap.initial({"s0": "h:1"}).with_shard("s1", "h:2")
        moved = shard_map.split_range("s0")
        after = shard_map.with_range_moved("s0", "s1", moved)
        assert after.epoch == shard_map.epoch + 1
        assert after.shard("s1").ranges == (moved,)
        for h in range(0, HASH_SPACE, HASH_SPACE // 64):
            assert len([s for s in after.shards if s.owns(h)]) == 1

    def test_moving_an_unowned_range_is_rejected(self):
        shard_map = ShardMap.initial({"s0": "h:1", "s1": "h:2"})
        with pytest.raises(ShardMapError):
            shard_map.with_range_moved("s1", "s0", (0, 10))

    def test_moved_subrange_is_carved_exactly(self):
        shard_map = ShardMap.initial({"s0": "h:1"}).with_shard("s1", "h:2")
        quarter = (HASH_SPACE // 4, HASH_SPACE // 2)
        after = shard_map.with_range_moved("s0", "s1", quarter)
        assert after.shard("s1").ranges == (quarter,)
        assert after.shard("s0").ranges == (
            (0, HASH_SPACE // 4),
            (HASH_SPACE // 2, HASH_SPACE),
        )


class TestWire:
    def test_round_trip(self):
        shard_map = ShardMap.initial({"s0": "h:1", "s1": "h:2"})
        moved = shard_map.split_range("s0")
        shard_map = shard_map.with_range_moved("s0", "s1", moved)
        assert ShardMap.from_wire(shard_map.to_wire()) == shard_map

    def test_wire_format_is_tagged(self):
        payload = ShardMap.initial({"s0": "h:1"}).to_wire()
        assert payload["format"] == "repro-shardmap-v2"
        payload["format"] = "something-else"
        with pytest.raises(ShardMapError):
            ShardMap.from_wire(payload)

    @pytest.mark.parametrize("tag", ["repro-shardmap-v1", "repro-shardmap-v3", None])
    def test_unknown_format_is_rejected(self, tag):
        # to_wire has only ever written v2: there is no older file to load.
        payload = ShardMap.initial({"s0": "h:1"}).to_wire()
        payload["format"] = tag
        with pytest.raises(ShardMapError, match="unknown shard map format"):
            ShardMap.from_wire(payload)


class TestReplicaSets:
    MAP = {
        "s0": [("s0", "h:1"), ("s0r1", "h:2"), ("s0r2", "h:3")],
        "s1": "h:9",
    }

    def test_primary_is_the_head_of_the_replica_set(self):
        shard_map = ShardMap.initial(self.MAP)
        shard = shard_map.shard("s0")
        assert shard.primary.replica_id == "s0"
        assert [r.replica_id for r in shard.followers] == ["s0r1", "s0r2"]
        assert shard.address == "h:1"  # advertised = primary's
        assert shard.role_of("s0") == "primary"
        assert shard.role_of("s0r2") == "follower"

    def test_single_address_shard_is_its_own_replica_set(self):
        shard = ShardMap.initial(self.MAP).shard("s1")
        assert [r.replica_id for r in shard.replica_set] == ["s1"]
        assert shard.primary.address == "h:9"

    def test_with_primary_promotes_and_bumps_the_epoch(self):
        shard_map = ShardMap.initial(self.MAP)
        promoted = shard_map.with_primary("s0", "s0r1")
        assert promoted.epoch == shard_map.epoch + 1
        shard = promoted.shard("s0")
        assert shard.primary.replica_id == "s0r1"
        assert shard.address == "h:2"
        # The old primary is demoted, not dropped.
        assert [r.replica_id for r in shard.replica_set] == [
            "s0r1", "s0", "s0r2"
        ]
        # The placement is untouched.
        assert shard.ranges == shard_map.shard("s0").ranges

    def test_promoting_the_primary_is_rejected(self):
        with pytest.raises(ShardMapError):
            ShardMap.initial(self.MAP).with_primary("s0", "s0")

    def test_with_replica_rejoins_at_the_back(self):
        shard_map = ShardMap.initial(self.MAP).with_primary("s0", "s0r1")
        # The replaced old primary rejoins at its new endpoint.
        rejoined = shard_map.with_replica("s0", "s0", "h:7")
        shard = rejoined.shard("s0")
        assert shard.replica_set[-1].replica_id == "s0"
        assert shard.replica_set[-1].address == "h:7"
        assert shard.primary.replica_id == "s0r1"

    def test_readdressing_the_primary_is_rejected(self):
        with pytest.raises(ShardMapError, match="promote"):
            ShardMap.initial(self.MAP).with_replica("s0", "s0", "h:8")

    def test_shard_of_replica_and_addresses(self):
        shard_map = ShardMap.initial(self.MAP)
        assert shard_map.shard_of_replica("s0r2").shard_id == "s0"
        with pytest.raises(ShardMapError):
            shard_map.shard_of_replica("nope")
        assert shard_map.addresses() == {"h:1", "h:2", "h:3", "h:9"}

    def test_split_preserves_replica_sets(self):
        shard_map = ShardMap.initial(self.MAP)
        moved = shard_map.split_range("s0")
        after = shard_map.with_range_moved("s0", "s1", moved)
        assert [r.replica_id for r in after.shard("s0").replica_set] == [
            "s0", "s0r1", "s0r2"
        ]

    def test_replica_round_trips_on_the_wire(self):
        shard_map = ShardMap.initial(self.MAP).with_primary("s0", "s0r2")
        assert ShardMap.from_wire(shard_map.to_wire()) == shard_map
