"""The io-fault sweep: the health-machine model checker, plus controls
proving it detects retry, degradation and repair where theory predicts."""

from __future__ import annotations

import json

import pytest

from repro.sim import IoFaultSweep, iosweep
from repro.sim.iosweep import (
    DEFAULT_STEPS,
    ReplicaRepairSweep,
    model_states,
    run_capacity,
    run_divergence,
)
from repro.sim.sweep import main


class TestModel:
    def test_final_state_matches_a_faultless_run(self):
        assert model_states(DEFAULT_STEPS)[-1] == {"alpha": 107, "beta": 15}

    def test_one_state_per_acked_prefix(self):
        states = model_states(DEFAULT_STEPS)
        updates = sum(1 for s in DEFAULT_STEPS if s[0] != "checkpoint")
        assert len(states) == updates + 1
        assert states[0] == {}

    def test_unknown_step_kind_rejected(self):
        with pytest.raises(ValueError):
            model_states([("frobnicate", "x", 1)])

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            IoFaultSweep(kinds=("gamma_rays",))


class TestSweepPasses:
    def test_event_count_is_deterministic(self):
        sweep = IoFaultSweep(durabilities=("immediate",))
        count = sweep.dry_run()
        assert count["io"] > 0
        assert sweep.dry_run() == count

    def test_bounded_sweep_is_clean(self):
        """The full sweep runs in CI; the suite checks a bounded prefix
        across every kind and both durability modes."""
        result = IoFaultSweep().run(max_events=4)
        result.assert_clean()
        assert result.runs == 4 * 3 * 2  # events x kinds x durabilities
        assert result.points["io"] > 4

    def test_transient_runs_stay_healthy(self):
        result = IoFaultSweep(kinds=("transient",)).run(max_events=6)
        result.assert_clean()
        assert result.total("degraded") == 0
        for outcome in result.outcomes:
            assert outcome.health == "healthy"
            assert outcome.faults_injected >= 1

    def test_persistent_faults_degrade(self):
        result = IoFaultSweep(
            kinds=("persistent",), durabilities=("immediate",)
        ).run(max_events=6)
        result.assert_clean()
        assert result.total("degraded") == result.runs
        for outcome in result.outcomes:
            assert outcome.health == "degraded_read_only"

    def test_some_degraded_runs_need_repair(self):
        """A fault can land mid-checkpoint or mid-append; at least one
        swept state must leave a directory fsck flags and repair fixes."""
        result = IoFaultSweep(kinds=("persistent", "disk_full")).run()
        result.assert_clean()
        assert result.total("repaired") > 0

    def test_deterministic_across_runs(self):
        one = IoFaultSweep(kinds=("persistent",)).run(max_events=4)
        two = IoFaultSweep(kinds=("persistent",)).run(max_events=4)
        assert [o.__dict__ for o in one.outcomes] == [
            o.__dict__ for o in two.outcomes
        ]

    def test_report_is_json_serialisable(self):
        result = IoFaultSweep(durabilities=("group",)).run(max_events=2)
        report = json.loads(json.dumps(result.report()))
        assert report["runs"] == result.runs
        assert len(report["outcomes"]) == result.runs


class TestSweepCatchesViolations:
    def test_zero_retries_makes_transients_fatal(self):
        """With no retry budget a transient fault degrades the database —
        the transient invariant must then fail, proving the checker
        actually discriminates."""
        result = IoFaultSweep(
            kinds=("transient",), fault_retries=0
        ).run(max_events=3)
        with pytest.raises(AssertionError, match="single transient fault left"):
            result.assert_clean()

    def test_black_box_judged_on_the_live_ring(self, monkeypatch):
        """A kind the ring never records fails every degraded run."""
        monkeypatch.setattr(
            iosweep,
            "REQUIRED_BLACKBOX_KINDS",
            iosweep.REQUIRED_BLACKBOX_KINDS + ("emergency_checkpoint",),
        )
        result = IoFaultSweep(
            kinds=("persistent",), durabilities=("immediate",)
        ).run(max_events=2)
        assert len(result.failures) == result.runs
        with pytest.raises(AssertionError, match="'emergency_checkpoint'"):
            result.assert_clean()


class TestCapacityBudget:
    @pytest.mark.parametrize("durability", ["group", "immediate"])
    def test_organic_disk_full_is_clean(self, durability):
        assert run_capacity(durability) == []

    def test_oversized_budget_is_reported(self):
        failures = run_capacity(capacity_pages=100_000)
        assert failures and "never filled" in failures[0]


class TestCli:
    def test_cli_exit_zero_on_clean_sweep(self, capsys):
        assert main(["io", "--max-events", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
        assert "capacity[group]: clean" in out
        assert "capacity[immediate]: clean" in out

    def test_cli_report_artifact(self, tmp_path, capsys):
        path = str(tmp_path / "iosweep.json")
        assert main(
            ["io", "--max-events", "1", "--kinds", "transient",
             "--report", path]
        ) == 0
        with open(path, encoding="ascii") as f:
            report = json.load(f)
        assert report["io"]["failures"] == 0
        assert report["io"]["runs"] == 2  # 1 event x transient x 2 modes
        assert report["capacity[group]"] == []
        assert report["repair"]["failures"] == 0
        assert report["divergence"] == []

    def test_cli_verbose_lists_every_run(self, capsys):
        assert main(
            ["io", "--max-events", "2", "--kinds", "persistent",
             "--durability", "immediate", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert " fault_at=1 kind=persistent " in out
        assert " fault_at=2 kind=persistent " in out
        assert "durability=group" not in out


class TestReplicaRepairSweep:
    def test_repair_event_count_is_deterministic(self):
        sweep = ReplicaRepairSweep()
        events = sweep.dry_run()
        assert events["io"] > 0
        assert sweep.dry_run() == events

    def test_every_persistent_fault_ends_healthy_via_the_peer(self):
        result = ReplicaRepairSweep().run(max_events=4)
        result.assert_clean()
        assert result.runs == 4 * 2  # events x (persistent, disk_full)
        assert result.total("recovered") == result.runs
        for outcome in result.outcomes:
            assert outcome.degraded
            assert outcome.recovered
            assert outcome.bytes_shipped > 0

    def test_transient_kinds_are_rejected(self):
        with pytest.raises(ValueError):
            ReplicaRepairSweep(kinds=("transient",))

    def test_full_sweep_is_clean(self):
        result = ReplicaRepairSweep(kinds=("persistent",)).run()
        result.assert_clean()
        assert result.runs == result.points["io"]


class TestDivergence:
    def test_seeded_divergence_heals_within_two_rounds(self):
        assert run_divergence(max_rounds=2) == []

    def test_even_one_round_converges_this_pair(self):
        # The ring pairs the two replicas on the first pass, so a single
        # round already detects and repairs the seeded corruption.
        assert run_divergence(max_rounds=1) == []
