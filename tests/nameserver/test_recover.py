"""Staged replica recovery: snapshot shipping, log-tail catch-up,
atomic cutover — and resumability at every stage boundary.

The paper restores a hard-errored replica "from another replica"; these
tests pin down what that means here: a blank or degraded node rebuilt
entirely over the peer surface, with a crash at any point either
invisible (before the cutover commit) or already durable (after it).
"""

from __future__ import annotations

import pytest

from repro.core import HEALTHY
from repro.core.version import read_current_version
from repro.nameserver import (
    RecoveryFailed,
    Replica,
    ReplicaRecoverer,
    abandon_recovery,
)
from repro.nameserver.recover import (
    CUTOVER,
    DONE,
    LOG_TAIL,
    PLANNING,
    RECOVERY_STATE_FILE,
    SNAPSHOT,
)
from repro.sim import SimClock
from repro.storage import SimFS

SEED = [
    ("svc/web/alpha", 1),
    ("svc/web/beta", 2),
    ("svc/db/gamma", 3),
    ("cfg/ttl", 60),
]
TAIL = [
    ("svc/web/alpha", 4),
    ("cfg/quota", 5),
]


class SimulatedCrash(Exception):
    pass


def make_source(clock: SimClock) -> Replica:
    """A healthy peer with a checkpoint and a log tail past it."""
    source = Replica(SimFS(clock=clock), "source", clock=clock)
    for path, value in SEED:
        source.bind(path, value)
    source.checkpoint()
    for path, value in TAIL:
        source.bind(path, value)
    return source


def entries(server) -> dict[str, object]:
    return {"/".join(path): value for path, value in server.read_subtree()}


def recover(fs, source, clock, **options):
    return ReplicaRecoverer(
        fs, "reborn", [source], clock=clock, chunk_size=128, **options
    )


class TestBlankBootstrap:
    def test_blank_node_rebuilds_to_the_peer_state(self, clock, fs):
        source = make_source(clock)
        recoverer = recover(fs, source, clock)
        replica = recoverer.run()
        assert entries(replica) == entries(source)
        assert replica.summary() == source.summary()
        assert replica.db.health == HEALTHY
        assert replica.db.enquire(lambda root: root["replica"]) == "reborn"

    def test_all_stages_run_in_order(self, clock, fs):
        source = make_source(clock)
        recoverer = recover(fs, source, clock)
        recoverer.run()
        assert recoverer.report.stages == [
            PLANNING, SNAPSHOT, LOG_TAIL, CUTOVER, DONE,
        ]
        assert recoverer.report.peer_id == "source"
        assert recoverer.report.bytes_shipped > 0
        assert recoverer.report.entries_replayed == len(TAIL)
        assert not recoverer.report.resumed

    def test_stage_gauge_returns_to_idle(self, clock, fs):
        source = make_source(clock)
        recoverer = recover(fs, source, clock)
        recoverer.run()
        assert recoverer.registry.get("recovery_stage").value == 0
        assert fs.exists(RECOVERY_STATE_FILE) is False

    def test_recovered_replica_accepts_its_own_updates(self, clock, fs):
        source = make_source(clock)
        replica = recover(fs, source, clock).run()
        replica.bind("cfg/new", 9)
        assert replica.lookup("cfg/new") == 9
        assert replica.summary()["reborn"] >= 1


class TestCrashAtEveryBoundary:
    def _points(self, clock) -> list[str]:
        """Enumerate the observer points one clean recovery makes."""
        observed: list[str] = []
        source = make_source(clock)
        fs = SimFS(clock=clock)
        recover(fs, source, clock, stage_observer=observed.append).run()
        return observed

    def test_the_boundaries_are_what_the_design_says(self, clock):
        points = self._points(clock)
        assert points[0] == PLANNING
        assert points[1] == SNAPSHOT
        assert "snapshot_chunk" in points
        assert points[-3:] == [LOG_TAIL, CUTOVER, DONE]

    def test_crash_at_every_point_resumes_to_the_same_state(self, clock):
        total = len(self._points(clock))
        for crash_at in range(1, total + 1):
            source = make_source(clock)
            fs = SimFS(clock=clock)
            seen = [0]
            crashed_point = [""]

            def observer(point: str) -> None:
                seen[0] += 1
                if seen[0] == crash_at:
                    crashed_point[0] = point
                    raise SimulatedCrash(point)

            with pytest.raises(SimulatedCrash):
                recover(fs, source, clock, stage_observer=observer).run()
            fs.crash()  # drop everything unsynced, like the machine
            if crashed_point[0] != DONE:
                # Before the commit inside CUTOVER the download must be
                # invisible: no version marker names the staged files.
                assert read_current_version(fs) is None, crashed_point[0]
            recoverer = recover(fs, source, clock)
            replica = recoverer.run()
            assert entries(replica) == entries(source), crashed_point[0]
            assert replica.db.health == HEALTHY

    def test_mid_snapshot_resume_does_not_refetch_shipped_bytes(self, clock):
        source = make_source(clock)
        fs = SimFS(clock=clock)
        chunks = [0]

        def observer(point: str) -> None:
            if point == "snapshot_chunk":
                chunks[0] += 1
                if chunks[0] == 2:
                    raise SimulatedCrash(point)

        total = source.snapshot_manifest()["checkpoint_bytes"]
        first = recover(fs, source, clock, stage_observer=observer)
        with pytest.raises(SimulatedCrash):
            first.run()
        fs.crash()
        second = recover(fs, source, clock)
        second.run()
        assert second.report.resumed
        # Both shipped chunks were fsynced before the crash; the resume
        # continues at the durable offset instead of refetching them.
        assert first.report.bytes_shipped == 2 * 128
        assert second.report.bytes_shipped == total - 2 * 128

    def test_crash_after_log_tail_skips_the_peer_entirely(self, clock):
        source = make_source(clock)
        fs = SimFS(clock=clock)

        def observer(point: str) -> None:
            if point == CUTOVER:
                raise SimulatedCrash(point)

        with pytest.raises(SimulatedCrash):
            recover(fs, source, clock, stage_observer=observer).run()
        fs.crash()

        class DeadPeer:
            def __getattr__(self, name):
                raise AssertionError("cutover resume must not call the peer")

        recoverer = ReplicaRecoverer(
            fs, "reborn", [DeadPeer()], clock=clock, chunk_size=128
        )
        replica = recoverer.run()
        assert recoverer.report.resumed
        assert entries(replica) == entries(source)


class TestReplanning:
    def test_snapshot_gone_replans_against_the_new_checkpoint(self, clock):
        source = make_source(clock)
        fs = SimFS(clock=clock)
        fired = [False]

        def observer(point: str) -> None:
            if point == "snapshot_chunk" and not fired[0]:
                # The peer checkpoints mid-download: the version being
                # streamed disappears and the next chunk answers
                # SnapshotGone.
                fired[0] = True
                source.bind("cfg/late", 7)
                source.checkpoint()

        recoverer = recover(fs, source, clock, stage_observer=observer)
        replica = recoverer.run()
        assert recoverer.report.plan_restarts >= 1
        assert entries(replica) == entries(source)

    def test_no_healthy_peer_fails_in_planning(self, clock, fs):
        degraded = make_source(clock)
        degraded.db.health_monitor.degrade("test", reason="test")
        with pytest.raises(RecoveryFailed) as excinfo:
            recover(fs, degraded, clock).run()
        assert excinfo.value.stage == PLANNING

    def test_unreachable_peer_fails_after_bounded_retries(self, clock, fs):
        class GonePeer:
            def snapshot_manifest(self):
                raise ConnectionError("unreachable")

        recoverer = ReplicaRecoverer(fs, "reborn", [GonePeer()], clock=clock)
        with pytest.raises(RecoveryFailed):
            recoverer.run()

    def test_picks_the_peer_with_the_dominant_vector(self, clock, fs):
        fresh = make_source(clock)
        stale = Replica(SimFS(clock=clock), "stale", clock=clock)
        stale.bind("only/one", 1)
        recoverer = ReplicaRecoverer(
            fs, "reborn", [stale, fresh], clock=clock
        )
        recoverer.run()
        assert recoverer.report.peer_id == "source"


class TestAbandon:
    def test_abandon_removes_the_staged_files(self, clock):
        source = make_source(clock)
        fs = SimFS(clock=clock)

        def observer(point: str) -> None:
            if point == LOG_TAIL:
                raise SimulatedCrash(point)

        with pytest.raises(SimulatedCrash):
            recover(fs, source, clock, stage_observer=observer).run()
        fs.crash()
        assert fs.exists(RECOVERY_STATE_FILE)
        assert abandon_recovery(fs)
        assert not fs.exists(RECOVERY_STATE_FILE)
        assert read_current_version(fs) is None
        assert not fs.list_names()

    def test_abandon_on_a_clean_directory_is_a_noop(self, fs):
        assert abandon_recovery(fs) is False

    def test_abandon_never_deletes_a_committed_version(self, clock):
        source = make_source(clock)
        fs = SimFS(clock=clock)
        recover(fs, source, clock).run()
        # Forge a stale state file naming the *committed* version.
        version = read_current_version(fs).number
        fs.write(
            RECOVERY_STATE_FILE,
            (
                '{"format": "repro-recovery-v1", "stage": "cutover", '
                '"replica_id": "reborn", "peer_id": "source", '
                '"source_version": 2, "checkpoint_bytes": 1, '
                f'"target_version": {version}}}'
            ).encode("ascii"),
        )
        assert abandon_recovery(fs)
        assert read_current_version(fs).number == version
        replica = Replica(fs, "reborn", clock=clock)
        assert entries(replica) == entries(source)
