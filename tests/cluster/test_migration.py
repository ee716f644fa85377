"""Online split/migration: stages, mirroring, resume, failure paths."""

from __future__ import annotations

import pytest

from repro.cluster import (
    MigrationFailed,
    WrongShard,
    pending_migration,
)
from repro.cluster.quorum import MIGRATION_STATE_FILE
from repro.core.sharding import HASH_SPACE, default_hash
from repro.rpc.errors import TransportError


def seed(cluster, count: int = 40) -> dict[str, int]:
    router = cluster.router()
    bound = {}
    for i in range(count):
        path = f"svc{i:03d}/addr"
        router.bind(path, i)
        bound[path] = i
    router.close()
    return bound


def moving_paths(bound: dict[str, int], lo: int, hi: int) -> list[str]:
    return [
        path for path in bound
        if lo <= default_hash(path.split("/")[0]) < hi
    ]


class TestCleanSplit:
    def test_split_moves_the_range_and_purges_the_donor(self, cluster2):
        bound = seed(cluster2)
        before = cluster2.coordinator.current_map()
        report = cluster2.coordinator.split("s0", "s1")

        assert report.stages == [
            "plan", "copy", "mirror", "cutover", "flush", "purge", "done"
        ]
        after = cluster2.coordinator.current_map()
        assert after.epoch == before.epoch + 1
        assert after.shard("s1").span() > before.shard("s1").span()

        # Everything is still readable through a fresh router...
        router = cluster2.router()
        for path, value in bound.items():
            assert router.lookup(path) == value
        assert router.count() == len(bound)
        router.close()

        # ...and each moved component now lives on exactly one shard.
        for path in moving_paths(bound, report.lo, report.hi):
            component = path.split("/")[0]
            with pytest.raises(WrongShard):
                cluster2.services["s0"].exists((component, "addr"))
            assert cluster2.services["s1"].exists((component, "addr"))

    def test_tombstones_travel_with_the_range(self, cluster2):
        router = cluster2.router()
        router.bind("svc001/gone", 1)
        router.unbind("svc001/gone")
        router.bind("svc001/kept", 2)
        router.close()

        report = cluster2.coordinator.split("s0", "s1")
        router = cluster2.router()
        if default_hash("svc001") >= report.lo:
            # The component moved: the tombstone must have moved too.
            assert not router.exists("svc001/gone")
        assert router.lookup("svc001/kept") == 2
        router.close()

    def test_migration_report_counts_work(self, cluster2):
        seed(cluster2)
        report = cluster2.coordinator.split("s0", "s1")
        assert report.components_copied > 0
        assert report.leaves_copied > 0
        assert report.delta_rounds == 2  # mirror delta + flush delta
        assert report.purged_leaves > 0
        assert pending_migration(cluster2.coordinator_fs) is None


class TestDualWrite:
    def test_updates_during_mirror_are_forwarded(self, cluster2):
        seed(cluster2)
        donor = cluster2.services["s0"]
        written: list[str] = []

        def observer(point: str) -> None:
            # Traffic landing on the donor while it is mirroring.
            if point == "saved_cutover":
                router = cluster2.router()
                for i in range(6):
                    path = f"svc{i:03d}/mirrored"
                    router.bind(path, f"mid-{i}")
                    written.append(path)
                router.close()

        cluster2.coordinator.split("s0", "s1", stage_observer=observer)
        assert donor.forwarded > 0
        router = cluster2.router()
        for i, path in enumerate(written):
            assert router.lookup(path) == f"mid-{i}"
        router.close()


class TestResume:
    def test_crash_after_copy_resumes_without_restarting(self, cluster2):
        seed(cluster2)

        class Crash(Exception):
            pass

        def crash_at(point: str) -> None:
            if point == "saved_mirror":
                raise Crash(point)

        with pytest.raises(Crash):
            cluster2.coordinator.split("s0", "s1", stage_observer=crash_at)
        state = pending_migration(cluster2.coordinator_fs)
        assert state is not None and state["stage"] == "mirror"

        report = cluster2.coordinator.resume_migration()
        assert report.resumed
        assert "copy" not in report.stages  # resumed past the bulk copy
        router = cluster2.router()
        assert router.count() == 40
        router.close()

    def test_unreachable_shard_fails_typed_then_resumes(self, cluster2):
        seed(cluster2)
        healthy_factory = cluster2.coordinator.shard_client_factory

        class Unreachable:
            def __getattr__(self, name):
                def fail(*a, **k):
                    raise TransportError("injected: shard down")
                return fail

        cluster2.coordinator.shard_client_factory = lambda info: Unreachable()
        with pytest.raises(MigrationFailed) as caught:
            cluster2.coordinator.split("s0", "s1")
        assert caught.value.stage == "plan" or caught.value.stage  # typed
        assert pending_migration(cluster2.coordinator_fs) is not None

        # The operator fixes the network and re-issues the split: the
        # persisted state resumes and completes.
        cluster2.coordinator.shard_client_factory = healthy_factory
        report = cluster2.coordinator.split("s0", "s1")
        assert report.resumed
        router = cluster2.router()
        assert router.count() == 40
        router.close()

    def test_abandon_before_cutover_leaves_the_old_map(self, cluster2):
        seed(cluster2)

        class Stop(Exception):
            pass

        def stop_at(point: str) -> None:
            if point == "saved_copy":
                raise Stop(point)

        epoch_before = cluster2.coordinator.current_map().epoch
        with pytest.raises(Stop):
            cluster2.coordinator.split("s0", "s1", stage_observer=stop_at)
        assert cluster2.coordinator.abandon_migration()
        assert pending_migration(cluster2.coordinator_fs) is None
        assert cluster2.coordinator.current_map().epoch == epoch_before
        # Abandoning again is a no-op.
        assert not cluster2.coordinator.abandon_migration()


class TestExplicitRange:
    def test_quarter_range_move(self, cluster2):
        bound = seed(cluster2)
        donor_ranges = cluster2.coordinator.current_map().shard("s0").ranges
        lo, hi = donor_ranges[0]
        quarter = ((lo + hi) // 2, (lo + hi) // 2 + (hi - lo) // 4)
        report = cluster2.coordinator.split("s0", "s1", moved=quarter)
        assert (report.lo, report.hi) == quarter
        router = cluster2.router()
        for path, value in bound.items():
            assert router.lookup(path) == value
        router.close()


class TestStateFile:
    def test_state_file_is_fsynced_and_well_formed(self, cluster1):
        import json

        fs = cluster1.coordinator_fs
        seed(cluster1, count=10)
        cluster1.coordinator.add_shard("s1", "sim:s1")
        cluster1.add_service("s1", cluster1.coordinator.current_map())

        class Halt(Exception):
            pass

        def halt(point: str) -> None:
            if point == "saved_flush":
                raise Halt(point)

        with pytest.raises(Halt):
            cluster1.coordinator.split("s0", "s1", stage_observer=halt)
        # Simulate the crash: unsynced writes are dropped.  The state
        # file must survive because every save fsyncs.
        fs.crash()
        state = json.loads(fs.read(MIGRATION_STATE_FILE))
        assert state["format"] == "repro-migration-v1"
        assert state["stage"] == "flush"
        assert state["donor"] == "s0" and state["target"] == "s1"
        assert 0 <= state["lo"] < state["hi"] <= HASH_SPACE
