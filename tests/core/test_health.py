"""The runtime health state machine: retry, degrade, refuse, restart.

A live server hit by a media fault must not crash and must not lie: a
transient fault costs a retry, a persistent one seals the log and
degrades to read-only — still answering enquiries from virtual memory,
refusing updates with a typed error.  The sealed primary, checked and
repaired once the device is replaced, restarts with what was served.
"""

from __future__ import annotations

import pytest

from repro.core import Database
from repro.core.errors import CheckpointFailed, DatabaseDegraded
from repro.core.health import DEGRADED_READ_ONLY, HEALTHY, RECOVERING
from repro.storage import FaultyFS, MediaFaultInjector, SimFS
from repro.storage.failures import WRITE_OPS
from repro.tools.fsck import fsck_directory, repair_directory

FSYNC_ONLY = frozenset({"fsync"})


@pytest.fixture
def harness(clock, kv_ops):
    """Build a database over a fault-injecting file system.

    The injector starts armed but with no fault scheduled; tests schedule
    one by assigning ``injector.fault_at_event`` (etc.) mid-run, exactly
    like a device going bad under a live server.
    """

    def build(durability="immediate", fault_retries=1):
        injector = MediaFaultInjector()
        prime = SimFS(clock=clock)
        db = Database(
            FaultyFS(prime, injector),
            operations=kv_ops,
            durability=durability,
            fault_retries=fault_retries,
        )
        injector.arm()
        return db, injector, prime

    return build


def _schedule(injector, *, persistent, ops=FSYNC_ONLY):
    """Fault the next eligible operation from here on(ce)."""
    injector.fault_at_event = injector.events_seen + 1
    injector.persistent = persistent
    injector.ops = ops


class TestTransientFaults:
    def test_transient_fault_costs_a_retry_not_the_server(self, harness):
        db, injector, _ = harness()
        _schedule(injector, persistent=False)
        assert db.update("set", "a", 1) is None
        assert db.health == HEALTHY
        assert len(injector.injected) == 1
        db.update("incr", "a")
        assert db.enquire(lambda root: root["a"]) == 2

    def test_faults_are_counted_even_when_retried(self, harness):
        db, injector, _ = harness()
        _schedule(injector, persistent=False)
        db.update("set", "a", 1)
        faults = db.registry.get("storage_faults_total")
        assert faults.labels("fsync").value == 1.0

    def test_retries_are_bounded(self, harness):
        """With zero retries even a transient fault degrades."""
        db, injector, _ = harness(fault_retries=0)
        _schedule(injector, persistent=False)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "a", 1)
        assert db.health == DEGRADED_READ_ONLY


class TestDegradedReadOnly:
    def test_persistent_fault_degrades(self, harness):
        db, injector, _ = harness()
        db.update("set", "a", 1)
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "b", 2)
        assert db.health == DEGRADED_READ_ONLY
        detail = db.health_detail()
        assert detail["state"] == DEGRADED_READ_ONLY
        assert "fsync" in detail["cause"]

    def test_degraded_serves_enquiries_refuses_updates(self, harness):
        db, injector, _ = harness()
        db.update("set", "a", 1)
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "b", 2)
        # The paper's core property survives: reads come from memory.
        assert db.enquire(lambda root: root["a"]) == 1
        with pytest.raises(DatabaseDegraded):
            db.update("incr", "a")
        with pytest.raises(DatabaseDegraded):
            db.update_many([("incr", ("a",), {})])
        with pytest.raises(DatabaseDegraded):
            db.checkpoint()

    def test_degrade_happens_once(self, harness):
        db, injector, _ = harness()
        _schedule(injector, persistent=True)
        for _ in range(3):
            with pytest.raises(DatabaseDegraded):
                db.update("set", "a", 1)
        degradations = db.registry.get("db_degradations_total")
        assert degradations.labels("media_fault").value == 1.0

    def test_health_gauge_tracks_the_state(self, harness):
        db, injector, _ = harness()
        assert db.registry.get("db_health_state").value == 0.0
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "a", 1)
        assert db.registry.get("db_health_state").value == 1.0

    def test_group_mode_degrades_too(self, harness):
        db, injector, _ = harness(durability="group")
        db.update("set", "a", 1)
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "b", 2)
        assert db.health == DEGRADED_READ_ONLY
        assert db.enquire(lambda root: root["a"]) == 1

    def test_degraded_database_still_closes(self, harness):
        db, injector, _ = harness()
        db.update("set", "a", 1)
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "b", 2)
        db.close()


class TestEmergencySnapshot:
    """No emergency snapshot: the sealed primary is the only local copy."""

    def test_no_spare_still_degrades_cleanly(self, harness):
        db, injector, _ = harness()
        db.update("set", "a", 1)
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "b", 2)
        assert db.health == DEGRADED_READ_ONLY

    def test_repaired_primary_restarts_with_what_was_served(
        self, harness, kv_ops
    ):
        db, injector, prime = harness()
        db.update("set", "a", 1)
        db.update("incr", "a", 41)
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "b", 2)
        served = db.enquire(dict)
        # The machine halts and the device is replaced; fsck repairs
        # whatever the fault left and the primary opens on its own.
        prime.crash()
        injector.disarm()
        if fsck_directory(prime).exit_status() != 0:
            repair_directory(prime)
        assert fsck_directory(prime).exit_status() == 0
        reopened = Database(prime, operations=kv_ops)
        assert reopened.enquire(dict) == served == {"a": 42}


class TestCheckpointFaults:
    def test_fault_before_commit_point_aborts_cleanly(self, harness):
        db, injector, prime = harness()
        db.update("set", "a", 1)
        version_before = db.version
        _schedule(injector, persistent=False, ops=WRITE_OPS)
        with pytest.raises(CheckpointFailed):
            db.checkpoint()
        # The old version is still current, nothing was lost, the server
        # is still healthy and writable.
        assert db.version == version_before
        assert db.health == HEALTHY
        assert db.health_detail()["checkpoint_retry_pending"] is True
        assert "newversion" not in prime.list_names()
        db.update("set", "b", 2)

    def test_aborted_checkpoint_retries_and_succeeds(self, harness):
        db, injector, _ = harness()
        db.update("set", "a", 1)
        version_before = db.version
        _schedule(injector, persistent=False, ops=WRITE_OPS)
        with pytest.raises(CheckpointFailed):
            db.checkpoint()
        # The transient fault has passed; the retry lands.
        assert db.checkpoint() == version_before + 1
        assert db.health_detail()["checkpoint_retry_pending"] is False

    def test_maybe_checkpoint_retries_pending_even_if_policy_is_quiet(
        self, harness
    ):
        db, injector, _ = harness()
        db.update("set", "a", 1)
        _schedule(injector, persistent=False, ops=WRITE_OPS)
        with pytest.raises(CheckpointFailed):
            db.checkpoint()
        # The default policy is Never, yet the pending retry fires.
        assert db.maybe_checkpoint() is True
        assert db.health_detail()["checkpoint_retry_pending"] is False

    def test_maybe_checkpoint_noop_once_degraded(self, harness):
        db, injector, _ = harness()
        db.update("set", "a", 1)
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "b", 2)
        assert db.maybe_checkpoint() is False

    def test_checkpoint_failures_are_counted(self, harness):
        db, injector, _ = harness()
        db.update("set", "a", 1)
        _schedule(injector, persistent=False, ops=WRITE_OPS)
        with pytest.raises(CheckpointFailed):
            db.checkpoint()
        assert db.registry.get("db_checkpoint_failures_total").value == 1.0


class TestRecoveringEdges:
    """The replica-repair edges: DEGRADED -> RECOVERING -> HEALTHY."""

    def test_degraded_node_can_begin_recovery(self, harness):
        db, injector, _ = harness()
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "a", 1)
        monitor = db.health_monitor
        assert monitor.begin_recovery(source="peer-b") is True
        assert monitor.state == RECOVERING
        assert "peer-b" in monitor.cause

    def test_healthy_node_refuses_recovery(self, harness):
        db, _, _ = harness()
        assert db.health_monitor.begin_recovery(source="peer-b") is False
        assert db.health_monitor.state == HEALTHY

    def test_recovered_returns_to_healthy(self, harness):
        db, injector, _ = harness()
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "a", 1)
        monitor = db.health_monitor
        monitor.begin_recovery(source="peer-b")
        assert monitor.recovered() is True
        assert monitor.state == HEALTHY
        assert monitor.cause is None

    def test_recovered_is_only_valid_from_recovering(self, harness):
        db, _, _ = harness()
        assert db.health_monitor.recovered() is False
        assert db.health_monitor.state == HEALTHY

    def test_failed_repair_falls_back_to_degraded(self, harness):
        db, injector, _ = harness()
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "a", 1)
        monitor = db.health_monitor
        monitor.begin_recovery(source="peer-b")
        assert monitor.recovery_failed("peer went away") is True
        assert monitor.state == DEGRADED_READ_ONLY
        assert monitor.cause == "peer went away"
        # The node is no worse off: a later attempt is still eligible.
        assert monitor.begin_recovery(source="peer-c") is True

    def test_gauge_tracks_the_recovery_round_trip(self, harness):
        db, injector, _ = harness()
        gauge = db.registry.get("db_health_state")
        _schedule(injector, persistent=True)
        with pytest.raises(DatabaseDegraded):
            db.update("set", "a", 1)
        assert gauge.value == 1.0
        db.health_monitor.begin_recovery(source="peer-b")
        assert gauge.value == 3.0
        db.health_monitor.recovered()
        assert gauge.value == 0.0
