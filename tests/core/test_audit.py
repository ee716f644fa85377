"""The audit trail: archived logs as a complete, replayable history."""

from __future__ import annotations

import itertools

import pytest

from repro.core import (
    AuditReader,
    CheckpointFailed,
    Database,
    EveryNUpdates,
    archived_epochs,
)
from repro.sim import MICROVAX_II, SimClock
from repro.storage import (
    FailureInjector,
    FaultyFS,
    MediaFaultInjector,
    SimFS,
    SimulatedCrash,
)
from repro.storage.failures import WRITE_OPS


def build(fs, kv_ops) -> Database:
    return Database(
        fs,
        initial=dict,
        operations=kv_ops,
        cost_model=MICROVAX_II,
        archive_logs=True,
    )


class TestArchiving:
    def test_checkpoint_archives_the_log(self, fs, kv_ops):
        db = build(fs, kv_ops)
        db.update("set", "a", 1)
        db.update("set", "b", 2)
        db.checkpoint()
        assert archived_epochs(fs) == [1]
        assert fs.exists("archive1")
        # The live files look exactly like a normal database's.
        assert fs.exists("checkpoint2")
        assert fs.exists("logfile2")
        assert not fs.exists("logfile1")

    def test_multiple_epochs_accumulate(self, fs, kv_ops):
        db = build(fs, kv_ops)
        for epoch in range(3):
            db.update("set", f"k{epoch}", epoch)
            db.checkpoint()
        assert archived_epochs(fs) == [1, 2, 3]

    def test_archives_survive_crash_and_recovery(self, fs, kv_ops):
        db = build(fs, kv_ops)
        db.update("set", "a", 1)
        db.checkpoint()
        db.update("set", "b", 2)
        fs.crash()
        recovered = build(fs, kv_ops)
        assert recovered.enquire(lambda root: dict(root)) == {"a": 1, "b": 2}
        assert archived_epochs(fs) == [1]

    def test_recovery_ignores_archives(self, fs, kv_ops):
        """A corrupt archive must not affect restart at all."""
        db = build(fs, kv_ops)
        db.update("set", "a", 1)
        db.checkpoint()
        fs.write("archive1", b"total garbage")
        fs.fsync("archive1")
        fs.crash()
        recovered = build(fs, kv_ops)
        assert recovered.enquire(lambda root: root["a"]) == 1


class TestAuditReader:
    def _history(self, fs, kv_ops):
        db = build(fs, kv_ops)
        db.update("set", "a", 1)
        db.update("set", "b", 2)
        db.checkpoint()
        db.update("set", "a", 10)
        db.update("del", "b")
        db.checkpoint()
        db.update("set", "c", 3)
        return db

    def test_records_cover_all_epochs_in_order(self, fs, kv_ops):
        self._history(fs, kv_ops)
        records = list(AuditReader(fs).records())
        assert [(r.epoch, r.seq, r.operation) for r in records] == [
            (1, 1, "set"),
            (1, 2, "set"),
            (2, 1, "set"),
            (2, 2, "del"),
            (3, 1, "set"),
        ]
        assert AuditReader(fs).count() == 5

    def test_history_of_one_key(self, fs, kv_ops):
        self._history(fs, kv_ops)
        touching_a = AuditReader(fs).history_of(
            lambda record: record.args and record.args[0] == "a"
        )
        assert [record.args for record in touching_a] == [("a", 1), ("a", 10)]

    def test_replay_onto_reconstructs_state(self, fs, kv_ops):
        db = self._history(fs, kv_ops)
        expected = db.enquire(lambda root: dict(root))
        rebuilt: dict = {}
        applied = AuditReader(fs).replay_onto(rebuilt, kv_ops)
        assert applied == 5
        assert rebuilt == expected

    def test_time_travel_prefix_replay(self, fs, kv_ops):
        """Replaying a prefix reconstructs the state as of that update."""
        self._history(fs, kv_ops)
        past: dict = {}
        for record in list(AuditReader(fs).records())[:2]:
            kv_ops.get(record.operation).apply(past, *record.args, **record.kwargs)
        assert past == {"a": 1, "b": 2}

    def test_describe(self, fs, kv_ops):
        self._history(fs, kv_ops)
        first = next(iter(AuditReader(fs).records()))
        assert first.describe() == "[1:1] set('a', 1)"

    def test_empty_database_has_empty_trail(self, fs, kv_ops):
        build(fs, kv_ops)
        assert AuditReader(fs).count() == 0

    def test_plain_database_audits_live_log_only(self, fs, kv_ops):
        """Without archiving, the reader still sees the current epoch."""
        from repro.core import Database

        db = Database(fs, initial=dict, operations=kv_ops)
        db.update("set", "x", 1)
        records = list(AuditReader(fs).records())
        assert [(r.epoch, r.operation) for r in records] == [(1, "set")]


class TestRetentionStepFaults:
    """The archive copy runs after the commit point, so neither a media
    fault nor a crash in it can cost an update or repeat one."""

    def test_archive_fault_never_fails_a_committed_update(self, clock, kv_ops):
        """A write fault anywhere in the checkpoint that the second update
        triggers: that update still returns, and a reopen leaves a trail
        of exactly the two updates.  A fault on the archive write itself
        is past the commit point — a ``finalize_switch`` fault, not a
        failed checkpoint."""
        options = dict(
            initial=dict, operations=kv_ops, archive_logs=True, policy=EveryNUpdates(2)
        )
        archive_faults = 0
        for fault_at in itertools.count(1):
            injector = MediaFaultInjector(fault_at_event=fault_at, ops=frozenset({"write"}))
            disk = SimFS(clock=clock)
            db = Database(FaultyFS(disk, injector), **options)
            db.update("set", "a", 1)
            injector.arm()
            db.update("set", "b", 2)  # checkpoints; the fault lands in it
            if not injector.injected:
                break
            assert db.enquire(dict) == {"a": 1, "b": 2}
            if injector.injected[0][2] == "archive1":
                archive_faults += 1
                faults = db.registry.get("storage_faults_total")
                assert faults.labels("finalize_switch").value == 1
                assert db.registry.get("db_checkpoint_failures_total").value == 0
            Database(disk, **options)  # the reopen finishes the step
            assert AuditReader(disk).count() == 2, f"fault at write event {fault_at}"
        assert archive_faults > 0

    def test_the_next_checkpoint_finishes_an_unfinished_step(self, clock, kv_ops):
        """A write-path fault anywhere in a checkpoint, then one more
        update and a checkpoint, then a crash: nothing acked is lost.
        After a fault in the retention step ``newversion`` is the commit
        point of the running version, so the next checkpoint finishes the
        step rather than deleting ``newversion`` as a partial file."""
        options = dict(initial=dict, operations=kv_ops, archive_logs=True)
        retention_faults = 0
        for fault_at in itertools.count(1):
            injector = MediaFaultInjector(fault_at_event=fault_at, ops=WRITE_OPS)
            disk = SimFS(clock=clock)
            db = Database(FaultyFS(disk, injector), **options)
            db.update("set", "a", 1)
            injector.arm()
            try:
                db.checkpoint()
            except CheckpointFailed:
                pass
            if not injector.injected:
                break
            faults = db.registry.get("storage_faults_total")
            retention_faults += faults.labels("finalize_switch").value
            db.update("set", "b", 2)
            db.checkpoint()
            disk.crash()
            recovered = Database(disk, **options)
            assert recovered.enquire(dict) == {"a": 1, "b": 2}, f"fault at {fault_at}"
            assert AuditReader(disk).count() == 2
        assert retention_faults > 0

    def test_every_crash_point_of_an_archiving_checkpoint(self, kv_ops):
        """Each acked update is in the trail exactly once, in commit order,
        and replaying the trail rebuilds the recovered state (``incr``
        makes a double replay visible)."""
        updates = [("incr", ("n",)), ("set", ("a", 1)), ("incr", ("n", 5))]

        def workload(fs, crash_at=None):
            """Acks the updates, then checkpoints, crashing at the
            checkpoint's ``crash_at``-th disk event; returns its events."""
            db = Database(fs, initial=dict, operations=kv_ops, archive_logs=True)
            for name, args in updates:
                db.update(name, *args)
            start = fs.injector.events_seen
            if crash_at is not None:
                fs.injector.crash_at_event = start + crash_at
            db.checkpoint()
            return fs.injector.events_seen - start

        events = workload(SimFS(clock=SimClock(), injector=FailureInjector()))
        for crash_at in range(1, events + 1):
            fs = SimFS(clock=SimClock(), injector=FailureInjector())
            with pytest.raises(SimulatedCrash):
                workload(fs, crash_at)
            fs.crash()
            fs.injector.disarm()
            recovered = Database(fs, initial=dict, operations=kv_ops, archive_logs=True)
            trail = AuditReader(fs)
            assert [(r.operation, r.args) for r in trail.records()] == updates, (
                f"crash at event {crash_at}"
            )
            rebuilt: dict = {}
            assert trail.replay_onto(rebuilt, kv_ops) == len(updates)
            assert rebuilt == recovered.enquire(dict) == {"n": 6, "a": 1}
