"""The shard sweep: online split/migration under scheduled faults."""

from __future__ import annotations

import json

from repro.core.sharding import default_hash
from repro.rpc.faults import FAULT_KINDS
from repro.sim.shardsweep import (
    MOVING_COMPONENTS,
    MOVE_BOUNDARY,
    STABLE_COMPONENTS,
    ShardSweep,
)
from repro.sim.sweep import main


class TestWorldPartition:
    def test_component_sets_straddle_the_split_boundary(self):
        for component in MOVING_COMPONENTS:
            assert default_hash(component) >= MOVE_BOUNDARY
        for component in STABLE_COMPONENTS:
            assert default_hash(component) < MOVE_BOUNDARY


class TestEventCounting:
    def test_event_counts_are_deterministic(self):
        sweep = ShardSweep()
        events = sweep.dry_run()
        assert events["network"] > 0
        assert sweep.dry_run() == events

    def test_clean_migration_has_many_crash_points(self):
        # stage entries + durable saves + per-component copy points
        assert ShardSweep().dry_run()["crash"] >= 10


class TestBoundedSweep:
    def test_bounded_sweep_is_clean(self):
        result = ShardSweep().run(max_events=4)
        result.assert_clean()
        # 4 network events x 3 kinds + 4 crash points
        assert result.runs == 4 * len(FAULT_KINDS) + 4
        assert result.points["network"] > 4

    def test_live_traffic_is_acked_and_judged(self):
        result = ShardSweep(kinds=("drop",)).run(max_events=3)
        result.assert_clean()
        for outcome in result.outcomes:
            assert outcome.completed
            assert outcome.acked_updates > len(MOVING_COMPONENTS)
            assert outcome.new_epoch >= 3  # bootstrap + add_shard + split

    def test_crash_runs_resume_from_persisted_stages(self):
        result = ShardSweep(kinds=()).run(max_events=None)
        result.assert_clean()
        crashes = [o for o in result.outcomes if o.mode == "crash"]
        assert len(crashes) == result.points["crash"]
        # Crashes after the first durable save must resume, not restart.
        assert any(o.resumed for o in crashes)

    def test_sever_faults_are_absorbed_by_client_retries(self):
        # A sever is one lost message plus a reconnect; the RPC client's
        # retransmission must hide it from the migration entirely.  (The
        # exhausted-retries → operator-resume path is unit-tested in
        # tests/cluster/test_migration.py with an always-failing client.)
        result = ShardSweep(kinds=("sever",)).run(max_events=6)
        result.assert_clean()
        assert all(o.completed for o in result.outcomes)

    def test_dual_writes_actually_forwarded(self):
        result = ShardSweep(kinds=()).run(max_events=1)
        result.assert_clean()
        assert any(o.forwarded > 0 for o in result.outcomes)


class TestCli:
    def test_cli_exit_zero_on_clean_sweep(self, capsys):
        assert main(["shard", "--max-events", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_cli_report_artifact(self, tmp_path, capsys):
        path = str(tmp_path / "shardsweep.json")
        assert main(
            ["shard", "--max-events", "1", "--kinds", "drop",
             "--report", path]
        ) == 0
        with open(path, encoding="ascii") as f:
            report = json.load(f)["shard"]
        assert report["failures"] == 0
        assert report["runs"] == 2  # 1 network event x drop + 1 crash point
        assert len(report["outcomes"]) == 2
