"""The chaos sweep: node loss at every protocol event, bounded subset.

The full sweep (every victim x every event) runs in CI as its own job;
here a small ``max_events`` slice keeps the tier-1 suite fast while
still exercising every victim kind — follower, primary of each shard,
and the coordinator with one quorum store lost for good.
"""

from __future__ import annotations

import json

from repro.sim.chaossweep import KILL_VICTIMS, ChaosSweep
from repro.sim.sweep import main


class TestEventCounting:
    def test_event_counts_are_deterministic(self):
        sweep = ChaosSweep()
        events = sweep.dry_run()
        assert events["kill"] > 0
        assert events["coordinator"] == events["kill"]
        assert sweep.dry_run() == events


class TestBoundedSweep:
    def test_bounded_sweep_is_clean(self):
        result = ChaosSweep().run(max_events=2)
        result.assert_clean()
        # 2 events x (4 replica victims + the coordinator)
        assert result.runs == 2 * (len(KILL_VICTIMS) + 1)

    def test_killed_nodes_are_revived_and_serving(self):
        result = ChaosSweep().run(max_events=2)
        result.assert_clean()
        kills = [o for o in result.outcomes if o.mode == "kill"]
        assert kills and all(o.revived for o in kills)
        assert all(o.acked_updates > 0 for o in result.outcomes)

    def test_primary_kills_promote_and_keep_writes_flowing(self):
        result = ChaosSweep().run(max_events=4)
        result.assert_clean()
        primaries = [
            o
            for o in result.outcomes
            if o.mode == "kill" and o.kind in ("s0", "s1")
        ]
        assert any(o.promoted for o in primaries)
        assert any(o.write_failovers > 0 for o in primaries)

    def test_coordinator_crash_runs_resume_under_a_standby(self):
        result = ChaosSweep().run(max_events=3)
        result.assert_clean()
        standbys = [o for o in result.outcomes if o.mode == "coordinator"]
        assert standbys
        assert all(o.completed for o in standbys)
        assert any(o.resumed for o in standbys)


class TestCli:
    def test_cli_exit_zero_and_report_artifact(self, tmp_path, capsys):
        path = str(tmp_path / "chaossweep.json")
        assert main(["chaos", "--max-events", "1", "--report", path]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
        with open(path, encoding="ascii") as f:
            report = json.load(f)["chaos"]
        assert report["failures"] == 0
        assert report["runs"] == len(KILL_VICTIMS) + 1
        assert report["totals"]["acked_updates"] > 0
