"""The sweep core itself: enumeration, the fired check, reports, AtCall."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.sim.netsweep import NetworkFaultSweep
from repro.sim.sweep import AtCall, Outcome, Sweep
from repro.storage.errors import SimulatedCrash


@dataclass
class ToyOutcome(Outcome):
    tear: bool = False
    hits: int = 0


class ToySweep(Sweep):
    """Records the order the core runs it in; raises at point 2 of "b"."""

    outcome_type = ToyOutcome
    TOTALS = ("hits", "fired")
    phases = [
        ("a", {"kind": ("x", "y"), "tear": (True, False)}),
        ("b", {"kind": ("z",)}),
    ]

    def __init__(self) -> None:
        self.order: list[tuple] = []

    def dry_run(self) -> dict[str, int]:
        return {"a": 3, "b": 2}

    def run_one(self, outcome: ToyOutcome) -> list[str]:
        self.order.append((outcome.mode, outcome.fault_at, outcome.kind, outcome.tear))
        if outcome.mode == "b" and outcome.fault_at == 2:
            raise ValueError("escaped")
        outcome.fired = True
        outcome.hits = outcome.fault_at
        return []


class TestEnumeration:
    def test_points_then_axes_in_declared_order(self):
        sweep = ToySweep()
        result = sweep.run()
        assert sweep.order == [
            ("a", 1, "x", True), ("a", 1, "x", False),
            ("a", 1, "y", True), ("a", 1, "y", False),
            ("a", 2, "x", True), ("a", 2, "x", False),
            ("a", 2, "y", True), ("a", 2, "y", False),
            ("a", 3, "x", True), ("a", 3, "x", False),
            ("a", 3, "y", True), ("a", 3, "y", False),
            ("b", 1, "z", False), ("b", 2, "z", False),
        ]
        assert result.points == {"a": 3, "b": 2}
        assert result.runs == 14

    def test_max_events_caps_every_mode(self):
        sweep = ToySweep()
        result = sweep.run(max_events=1)
        assert [(o.mode, o.fault_at) for o in result.outcomes] == [("a", 1)] * 4 + [("b", 1)]
        assert result.points == {"a": 3, "b": 2}  # the dry run's counts, uncapped
        assert ToySweep().run(max_events=0).runs == 0

    def test_an_escaping_exception_is_a_failure_not_a_crash(self):
        result = ToySweep().run()
        (failed,) = result.failures
        assert (failed.mode, failed.fault_at) == ("b", 2)
        assert failed.failure == "run raised ValueError('escaped')"
        with pytest.raises(AssertionError, match=r"1 of 14 runs failed; first: b z"):
            result.assert_clean()


class TestReport:
    def test_json_round_trip(self):
        result = ToySweep().run()
        report = json.loads(json.dumps(result.report()))
        assert report == result.report()
        assert report["points"] == {"a": 3, "b": 2}
        assert report["runs"] == 14 and report["failures"] == 1
        # hits: 4 x (1 + 2 + 3) in "a", 1 in "b"; fired: all but one run
        assert report["totals"] == {"hits": 25, "fired": 13}
        assert report["outcomes"][0] == {
            "fault_at": 1, "kind": "x", "mode": "a", "fired": True,
            "completed": False, "resumed": False, "retried_run": False,
            "failure": None, "tear": True, "hits": 1,
        }
        assert "14 runs over 3 a + 2 b fault points: 1 failures, 25 hits" in (
            result.summary()
        )


class TestEveryFaultFires:
    def test_a_point_past_the_dry_run_never_fires(self):
        """Negative control: a dry run that over-counts by one must show
        up as a failed run, not as a clean pass."""

        class OverCounting(NetworkFaultSweep):
            def dry_run(self):
                return {"network": super().dry_run()["network"] + 1}

        result = OverCounting(kinds=("drop",)).run()
        *faulted, extra = result.outcomes
        assert all(o.fired and o.failure is None for o in faulted)
        assert not extra.fired
        assert extra.failure == f"fault point {extra.fault_at} never fired"
        with pytest.raises(AssertionError, match="never fired"):
            result.assert_clean()


class TestAtCall:
    def test_halts_at_exactly_the_kth_call(self):
        seen: list[str] = []
        observer = AtCall(3, each=seen.append)
        observer("planning")
        observer("snapshot")
        assert not observer.fired
        with pytest.raises(SimulatedCrash) as halted:
            try:
                observer("chunk")
            except Exception:  # noqa: BLE001 - what library code would do
                pytest.fail("an except Exception handler swallowed the halt")
        assert halted.value.detail == "chunk"
        assert (observer.calls, observer.point) == (3, "chunk")
        assert seen == ["planning", "snapshot", "chunk"]  # traffic first

    def test_runs_an_action_instead_and_keeps_going(self):
        actions: list[int] = []
        observer = AtCall(2, action=lambda: actions.append(1))
        for point in ("a", "b", "c"):
            observer(point)
        assert actions == [1] and observer.point == "b"

    def test_without_k_it_only_counts(self):
        observer = AtCall()
        for point in ("a", "b", "c"):
            observer(point)
        assert observer.calls == 3 and not observer.fired
