"""The network-fault sweep: the model checker itself, plus the negative
control proving it detects at-most-once violations."""

from __future__ import annotations

import pytest

from repro.sim import NetworkFaultSweep
from repro.sim.netsweep import DEFAULT_STEPS, run_model
from repro.sim.sweep import main


class TestSweepPasses:
    def test_full_sweep_is_clean(self):
        result = NetworkFaultSweep().run()
        result.assert_clean()
        assert result.runs == 2 * result.points["network"]  # drop + sever
        assert result.total("retries") >= result.runs  # every fault retried

    def test_event_count_is_two_per_call(self):
        sweep = NetworkFaultSweep()
        assert sweep.dry_run() == {"network": 2 * len(DEFAULT_STEPS)}

    def test_reply_faults_hit_the_reply_cache(self):
        """Every lost reply must be resolved by the cache, not re-execution."""
        result = NetworkFaultSweep(kinds=("drop",)).run()
        result.assert_clean()
        reply_outcomes = [o for o in result.outcomes if o.point == "reply"]
        assert reply_outcomes  # the sweep did land faults on replies
        for outcome in reply_outcomes:
            assert outcome.reply_cache_hits >= 1

    def test_request_faults_never_touch_the_cache_path(self):
        result = NetworkFaultSweep(kinds=("drop",)).run()
        for outcome in result.outcomes:
            if outcome.point == "request":
                assert outcome.reply_cache_hits == 0

    def test_delay_kind_is_clean_without_retries(self):
        result = NetworkFaultSweep(kinds=("delay",)).run()
        result.assert_clean()
        assert result.total("retries") == 0  # delays are not errors

    def test_max_events_bounds_the_sweep(self):
        result = NetworkFaultSweep(kinds=("drop",)).run(max_events=4)
        assert result.runs == 4
        assert result.points == {"network": 2 * len(DEFAULT_STEPS)}
        result.assert_clean()

    def test_deterministic_across_runs(self):
        one = NetworkFaultSweep().run()
        two = NetworkFaultSweep().run()
        assert [o.__dict__ for o in one.outcomes] == [
            o.__dict__ for o in two.outcomes
        ]


class TestSweepCatchesViolations:
    """The model checker must fail when at-most-once is actually broken."""

    def test_anonymous_client_double_executes(self):
        """client_id="" disables the reply cache: a retried lost reply
        re-executes the update, and the sweep must notice."""
        result = NetworkFaultSweep(client_id="").run()
        with pytest.raises(AssertionError, match="duplicate or lost execution"):
            result.assert_clean()
        # the failures are exactly where theory predicts: replies to
        # non-idempotent or state-visible calls
        assert any(
            o.point == "reply" and o.failure for o in result.outcomes
        )

    def test_violation_is_reported_as_duplicate_execution(self):
        result = NetworkFaultSweep(client_id="", kinds=("drop",)).run()
        duplicate_reports = [
            o for o in result.failures
            if o.failure and "duplicate" in o.failure
        ]
        assert duplicate_reports


class TestModel:
    def test_model_matches_a_faultless_run(self):
        state, returns = run_model(DEFAULT_STEPS)
        assert state == {"alpha": 100, "beta": 15}
        assert len(returns) == len(DEFAULT_STEPS)

    def test_model_rejects_unknown_ops(self):
        with pytest.raises(ValueError):
            run_model([("frobnicate", "x")])


class TestCli:
    def test_cli_exit_zero_on_clean_sweep(self, capsys):
        assert main(["net", "--max-events", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_cli_verbose_lists_every_run(self, capsys):
        assert main(["net", "--max-events", "2", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert out.count(" fault_at=1 ") == 2  # drop + sever
        assert out.count(" fault_at=2 ") == 2
