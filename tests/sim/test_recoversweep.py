"""The recovery sweep: staged replica repair under scheduled faults."""

from __future__ import annotations

import json

from repro.rpc.faults import FAULT_KINDS
from repro.sim.recoversweep import RecoverySweep
from repro.sim.sweep import main


class TestEventCounting:
    def test_event_counts_are_deterministic(self):
        sweep = RecoverySweep()
        events = sweep.dry_run()
        assert events["network"] > 0
        assert sweep.dry_run() == events

    def test_clean_recovery_has_multiple_crash_points(self):
        # planning, snapshot, >=1 chunk, log_tail, cutover, done
        assert RecoverySweep().dry_run()["crash"] >= 6


class TestBoundedSweep:
    def test_bounded_sweep_is_clean(self):
        result = RecoverySweep().run(max_events=4)
        result.assert_clean()
        # 4 network events x 3 kinds + 4 crash points
        assert result.runs == 4 * len(FAULT_KINDS) + 4
        assert result.points["network"] > 4

    def test_every_faulted_recovery_converges(self):
        result = RecoverySweep(kinds=("drop",)).run(max_events=3)
        result.assert_clean()
        for outcome in result.outcomes:
            assert outcome.completed
            assert outcome.bytes_shipped > 0

    def test_crash_runs_resume_from_durable_boundaries(self):
        result = RecoverySweep(kinds=()).run(max_events=None)
        result.assert_clean()
        crashes = [o for o in result.outcomes if o.mode == "crash"]
        assert len(crashes) == result.points["crash"]
        # Crashes after the first durable save must resume, not restart.
        assert any(o.resumed for o in crashes)

    def test_delay_faults_never_break_recovery(self):
        result = RecoverySweep(kinds=("delay",)).run(max_events=4)
        result.assert_clean()


class TestCli:
    def test_cli_exit_zero_on_clean_sweep(self, capsys):
        assert main(["recover", "--max-events", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_cli_report_artifact(self, tmp_path, capsys):
        path = str(tmp_path / "recoversweep.json")
        assert main(
            ["recover", "--max-events", "1", "--kinds", "drop",
             "--report", path]
        ) == 0
        with open(path, encoding="ascii") as f:
            report = json.load(f)["recover"]
        assert report["failures"] == 0
        assert report["runs"] == 2  # 1 network event x drop + 1 crash point
        assert len(report["outcomes"]) == 2


class TestHistoryWindowWedge:
    """A source whose history no longer reaches back to its checkpoint."""

    def test_clean_wedged_recovery_plans_and_ships_twice(self):
        plain = RecoverySweep(chunk_size=8192)
        wedged = RecoverySweep(chunk_size=8192, wedged=True)
        plain_points, wedged_points = plain.dry_run(), wedged.dry_run()
        # one more planning and snapshot stage, and a chunk for each snapshot
        assert wedged_points["crash"] >= plain_points["crash"] + 3
        # the fresh manifest, the second download, the second tail request
        assert wedged_points["network"] >= plain_points["network"] + 6

    def test_bounded_wedge_sweep_is_clean(self):
        result = RecoverySweep(
            kinds=("drop",), chunk_size=8192, wedged=True
        ).run(max_events=2)
        result.assert_clean()
        assert result.runs == 4

    def test_cli_reports_the_wedge_beside_the_plain_sweep(self, tmp_path, capsys):
        path = str(tmp_path / "recoversweep.json")
        assert main(
            ["recover", "--max-events", "1", "--kinds", "drop",
             "--report", path]
        ) == 0
        assert "wedge: 2 runs" in capsys.readouterr().out
        with open(path, encoding="ascii") as f:
            report = json.load(f)
        assert report["wedge"]["runs"] == 2 and report["wedge"]["failures"] == 0
