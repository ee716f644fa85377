"""Recovery paths: damaged checkpoints, damaged logs, previous-version fallback."""

from __future__ import annotations

import pytest

from repro.core import Database, RecoveryError
from repro.core.version import checkpoint_name
from repro.sim import MICROVAX_II, SimClock
from repro.storage import SimFS


def build(fs, kv_ops, **kw):
    settings = {"initial": dict, "operations": kv_ops, "cost_model": MICROVAX_II}
    settings.update(kw)
    return Database(fs, **settings)


class TestDamagedLog:
    def test_torn_tail_truncated_and_writer_resumes(self, fs, kv_ops):
        db = build(fs, kv_ops)
        db.update("set", "a", 1)
        db.update("set", "b", 2)
        # Corrupt the tail of the log (simulate a torn final entry).
        fs.crash()
        size = fs.size("logfile1")
        fs.corrupt("logfile1", size - 1)
        db2 = build(fs, kv_ops)
        assert db2.last_recovery.log_truncated
        assert db2.enquire(lambda root: dict(root)) == {"a": 1}
        # The writer resumes after the truncation point.
        db2.update("set", "c", 3)
        fs.crash()
        db3 = build(fs, kv_ops)
        assert db3.enquire(lambda root: dict(root)) == {"a": 1, "c": 3}

    def test_mid_log_hard_error_strict_truncates(self, fs, kv_ops):
        db = build(fs, kv_ops)
        for i in range(5):
            db.update("set", f"k{i}", i)
        fs.crash()
        fs.corrupt("logfile1", 512 * 2)  # third entry's page
        db2 = build(fs, kv_ops)
        assert db2.last_recovery.log_truncated
        assert db2.enquire(lambda root: sorted(root)) == ["k0", "k1"]

    def test_mid_log_hard_error_skipped_when_configured(self, fs, kv_ops):
        db = build(fs, kv_ops)
        for i in range(5):
            # k2's entry spans several pages so its payload can be damaged
            # without touching its header page.
            value = "v" * 600 if i == 2 else i
            db.update("set", f"k{i}", value)
        fs.crash()
        fs.corrupt("logfile1", 512 * 2 + 600)  # k2's payload, second page
        db2 = build(fs, kv_ops, ignore_damaged_log=True)
        assert db2.last_recovery.entries_skipped == 1
        # All updates except the damaged one are recovered.
        assert db2.enquire(lambda root: sorted(root)) == ["k0", "k1", "k3", "k4"]


class TestDamagedCheckpoint:
    def test_damaged_checkpoint_without_redundancy_fails(self, fs, kv_ops):
        db = build(fs, kv_ops)
        db.update("set", "a", 1)
        db.checkpoint()
        fs.crash()
        fs.corrupt(checkpoint_name(2), 0)
        with pytest.raises(RecoveryError):
            build(fs, kv_ops)

    def test_previous_checkpoint_fallback(self, fs, kv_ops):
        """Section 4: previous checkpoint + previous log + current log."""
        db = build(fs, kv_ops, keep_versions=2)
        db.update("set", "epoch1", 1)
        db.checkpoint()  # version 2 (checkpoint1/log1 retained)
        db.update("set", "epoch2", 2)
        db.checkpoint()  # version 3 (checkpoint2/log2 retained)
        db.update("set", "epoch3", 3)
        fs.crash()
        fs.corrupt(checkpoint_name(3), 0)
        db2 = build(fs, kv_ops, keep_versions=2)
        assert db2.last_recovery.used_previous_checkpoint
        assert db2.enquire(lambda root: dict(root)) == {
            "epoch1": 1,
            "epoch2": 2,
            "epoch3": 3,
        }

    def test_both_checkpoints_damaged_fails(self, fs, kv_ops):
        db = build(fs, kv_ops, keep_versions=2)
        db.update("set", "a", 1)
        db.checkpoint()
        fs.crash()
        fs.corrupt(checkpoint_name(1), 0)
        fs.corrupt(checkpoint_name(2), 0)
        with pytest.raises(RecoveryError):
            build(fs, kv_ops, keep_versions=2)


class TestReplayContract:
    def test_unknown_operation_in_log_fails_recovery(self, fs, kv_ops):
        from repro.core import OperationRegistry

        db = build(fs, kv_ops)
        db.update("set", "a", 1)
        fs.crash()
        with pytest.raises(RecoveryError, match="unknown"):
            Database(fs, initial=dict, operations=OperationRegistry())

    def test_nondeterministic_apply_fails_recovery(self, fs):
        from repro.core import OperationRegistry

        ops = OperationRegistry()
        state = {"fail_on_replay": False}

        @ops.operation("flaky")
        def flaky(root, key):
            if state["fail_on_replay"]:
                raise RuntimeError("not deterministic")
            root[key] = 1

        db = Database(fs, initial=dict, operations=ops)
        db.update("flaky", "a")
        fs.crash()
        state["fail_on_replay"] = True
        with pytest.raises(RecoveryError, match="deterministic"):
            Database(fs, initial=dict, operations=ops)


class TestRestartCleanup:
    def test_interrupted_checkpoint_cleaned_up(self, fs, kv_ops):
        """A half-written checkpoint (no commit) disappears on restart."""
        db = build(fs, kv_ops)
        db.update("set", "a", 1)
        # Fake a partially written next checkpoint.
        fs.write("checkpoint2", b"partial bytes")
        fs.fsync("checkpoint2")
        fs.crash()
        db2 = build(fs, kv_ops)
        assert db2.version == 1
        assert not fs.exists("checkpoint2")
        assert db2.enquire(lambda root: root["a"]) == 1

    def test_committed_but_unfinalized_switch_completed(self, fs, kv_ops):
        """newversion exists and is valid: restart honours and finishes it."""
        db = build(fs, kv_ops)
        db.update("set", "a", 1)
        db.checkpoint()  # clean switch to 2
        # Simulate crash mid-switch by recreating the pre-finalize state:
        fs.write("checkpoint3", fs.read("checkpoint2"))
        fs.fsync("checkpoint3")
        fs.create("logfile3")
        fs.fsync("logfile3")
        fs.write("newversion", b"3")
        fs.fsync("newversion")
        fs.crash()
        db2 = build(fs, kv_ops)
        assert db2.version == 3
        assert fs.read("version") == b"3"
        assert not fs.exists("newversion")
        assert not fs.exists("checkpoint2")
        assert db2.enquire(lambda root: root["a"]) == 1


class TestRestartTiming:
    def test_restart_time_proportional_to_log_length(self, kv_ops):
        """Paper: 'restart time … is mostly proportional to the log size'."""
        times = {}
        for entries in (10, 40):
            clock = SimClock()
            fs = SimFS(clock=clock)
            db = build(fs, kv_ops)
            for i in range(entries):
                db.update("set", f"key-{i:06d}", "v" * 50)
            fs.crash()
            before = clock.now()
            build(fs, kv_ops)
            times[entries] = clock.now() - before
        ratio = times[40] / times[10]
        assert 2.5 < ratio < 5.0  # ~4x entries → ~4x time (minus constant)


class TestReplayProgress:
    def test_gauges_and_flight_events_at_the_stated_cadence(
        self, fs, kv_ops, monkeypatch
    ):
        """"Is restart stuck?": replay publishes how far it has got."""
        from repro.core import recovery

        monkeypatch.setattr(recovery, "PROGRESS_EVERY", 4)
        db = build(fs, kv_ops)
        for i in range(10):
            db.update("set", f"k{i}", i)
        fs.crash()
        db2 = build(fs, kv_ops)
        gauges = {
            name: family["series"][0]["value"]
            for name, family in db2.registry.snapshot().items()
            if name.startswith("recovery_")
        }
        log_bytes = fs.size("logfile1")
        assert gauges == {
            "recovery_log_bytes": log_bytes,
            "recovery_replay_bytes": log_bytes,  # the closing report
            "recovery_replay_entries": 10,
        }
        events = [e["fields"] for e in db2.flight.events("log_replay_progress")]
        assert [e["entries"] for e in events] == [4, 8]  # every 4th, no more
        # the end of the 4th and 8th entries, each alone on its 512-byte page
        assert [-(-e["bytes"] // 512) for e in events] == [4, 8]
        assert all(e["log_bytes"] == log_bytes for e in events)
