"""Features composed: archiving + redundancy, sharding + policies,
group commit + recovery, daemon + archiving."""

from __future__ import annotations

import time

import pytest

from repro.core import (
    AuditReader,
    CheckpointDaemon,
    Database,
    EveryNUpdates,
    LogSizeThreshold,
    OperationRegistry,
    ShardedDatabase,
)
from repro.core.version import checkpoint_name
from repro.storage import SimulatedCrash


@pytest.fixture
def ops(kv_ops) -> OperationRegistry:
    return kv_ops


class TestArchivingPlusRedundancy:
    def test_archiving_with_kept_previous_checkpoint(self, fs, ops):
        db = Database(
            fs, initial=dict, operations=ops, keep_versions=2, archive_logs=True
        )
        db.update("set", "a", 1)
        db.checkpoint()
        db.update("set", "b", 2)
        db.checkpoint()
        # Both the redundancy pair and the audit archives coexist.
        names = set(fs.list_names())
        assert {"archive1", "archive2", "checkpoint2", "checkpoint3"} <= names
        # Damage the current checkpoint: section-4 fallback still works.
        fs.crash()
        fs.corrupt(checkpoint_name(3), 0)
        recovered = Database(
            fs, initial=dict, operations=ops, keep_versions=2, archive_logs=True
        )
        assert recovered.enquire(lambda root: dict(root)) == {"a": 1, "b": 2}
        # …and the audit trail still covers the whole history.
        assert AuditReader(fs).count() >= 2

    def test_archives_accumulate_under_policy(self, fs, ops):
        db = Database(
            fs,
            initial=dict,
            operations=ops,
            policy=EveryNUpdates(5),
            archive_logs=True,
        )
        for i in range(17):
            db.update("set", f"k{i}", i)
        assert db.stats.checkpoints == 3
        assert AuditReader(fs).count() == 17


class TestShardingPlusPolicies:
    def test_per_shard_policies_fire_independently(self, fs, ops):
        sharded = ShardedDatabase(
            fs,
            num_shards=2,
            initial=dict,
            operations=ops,
            policy=LogSizeThreshold(4 * 1024),
        )
        # Push one key's shard hard; the other shard stays quiet.
        hot = "hot-key"
        hot_shard = sharded.shard_of(hot, None)
        for i in range(20):
            sharded.update("set", hot, "x" * 400)
        checkpoints = [db.stats.checkpoints for db in sharded.shards]
        assert checkpoints[hot_shard] >= 1
        assert checkpoints[1 - hot_shard] == 0

    def test_sharded_crash_with_mixed_progress(self, fs, ops):
        sharded = ShardedDatabase(fs, num_shards=2, initial=dict, operations=ops)
        for i in range(20):
            sharded.update("set", f"k{i}", i)
        sharded.checkpoint_shard(0)
        for i in range(20, 30):
            sharded.update("set", f"k{i}", i)
        fs.crash()
        recovered = ShardedDatabase(fs, num_shards=2, initial=dict, operations=ops)
        merged = {}
        for part in recovered.enquire_all(dict):
            merged.update(part)
        assert merged == {f"k{i}": i for i in range(30)}


class TestGroupCommitRecovery:
    def test_batches_and_singles_interleaved_replay(self, fs, ops):
        db = Database(fs, initial=dict, operations=ops)
        db.update("set", "solo1", 1)
        db.update_many([("set", (f"batch{i}", i)) for i in range(5)])
        db.update("set", "solo2", 2)
        db.checkpoint()
        db.update_many([("set", ("late1", 1)), ("set", ("late2", 2))])
        fs.crash()
        recovered = Database(fs, initial=dict, operations=ops)
        state = recovered.enquire(dict)
        assert len(state) == 9
        assert recovered.last_recovery.entries_replayed == 2

    def test_batch_then_torn_crash(self, fs, ops):
        db = Database(fs, initial=dict, operations=ops)
        db.update_many([("set", (f"k{i}", "v" * 300)) for i in range(4)])
        injector = fs.injector
        injector.crash_at_event = injector.events_seen + 2
        with pytest.raises(SimulatedCrash):
            db.update_many([("set", (f"m{i}", "w" * 300)) for i in range(4)])
        fs.crash()
        injector.disarm()
        recovered = Database(fs, initial=dict, operations=ops)
        state = recovered.enquire(dict)
        # The first batch is fully present; the second is a prefix.
        assert all(f"k{i}" in state for i in range(4))
        survivors = sorted(k for k in state if k.startswith("m"))
        assert survivors == [f"m{i}" for i in range(len(survivors))]


class TestDaemonPlusArchiving:
    def test_daemon_drives_archiving_database(self, fs, ops):
        db = Database(fs, initial=dict, operations=ops, archive_logs=True)
        with CheckpointDaemon(db, EveryNUpdates(4), poll_interval=0.005):
            for i in range(12):
                db.update("set", f"k{i}", i)
                time.sleep(0.002)
            deadline = time.monotonic() + 5
            while db.stats.checkpoints < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert db.stats.checkpoints >= 2
        # Every update is in the audit trail regardless of who checkpointed.
        assert AuditReader(fs).count() == 12
