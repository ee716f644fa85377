"""The crash-point sweep itself, and the paper's recovery claims (E11)."""

from __future__ import annotations

import pytest

from repro.core import OperationRegistry
from repro.sim import CrashPointSweep


@pytest.fixture
def ops() -> OperationRegistry:
    registry = OperationRegistry()

    @registry.operation("set")
    def op_set(root, key, value):
        root[key] = value

    @registry.operation("del")
    def op_del(root, key):
        root.pop(key, None)

    return registry


STEPS = [
    ("update", "set", ("a", 1)),
    ("update", "set", ("b", "x" * 700)),  # multi-page log entry
    ("checkpoint",),
    ("update", "set", ("a", 2)),
    ("update", "del", ("b",)),
    ("update", "set", ("c", [1, 2, 3])),
]


class TestSweepMechanics:
    def test_count_events_stable(self, ops):
        sweep = CrashPointSweep(STEPS, ops)
        assert sweep.dry_run() == sweep.dry_run()

    def test_model_prefixes(self, ops):
        sweep = CrashPointSweep(STEPS, ops)
        assert sweep._models[0] == {}
        assert sweep._models[1] == {"a": 1}
        assert sweep._models[5] == {"a": 2, "c": [1, 2, 3]}

    def test_unknown_step_rejected(self, ops):
        with pytest.raises(ValueError):
            CrashPointSweep([("explode",)], ops)

    def test_max_events_limits_runs(self, ops):
        result = CrashPointSweep(STEPS, ops).run(max_events=3)
        assert result.runs == 6  # 3 events x 2 tear modes


class TestRecoveryClaims:
    """E11: the section-4 guarantees, exhaustively."""

    def test_every_crash_state_recovers_exactly_padded(self, ops):
        result = CrashPointSweep(STEPS, ops, pad_log_to_page=True).run()
        result.assert_clean()
        assert result.total("lost_committed_update") == 0
        assert result.runs == result.points["crash"] * 2

    def test_unpadded_layout_recovers_consistently(self, ops):
        """The paper's exact layout: always consistent, but torn appends
        can destroy committed entries sharing a page (design note D2)."""
        result = CrashPointSweep(STEPS, ops, pad_log_to_page=False).run()
        result.assert_clean()
        assert result.total("lost_committed_update") > 0  # the hazard is real

    def test_sweep_with_kept_previous_checkpoint(self, ops):
        result = CrashPointSweep(STEPS, ops, keep_versions=2).run()
        result.assert_clean()

    def test_checkpoint_heavy_script(self, ops):
        steps = [
            ("update", "set", ("k", 0)),
            ("checkpoint",),
            ("update", "set", ("k", 1)),
            ("checkpoint",),
            ("update", "set", ("k", 2)),
            ("checkpoint",),
        ]
        result = CrashPointSweep(steps, ops).run()
        result.assert_clean()

    def test_large_values_sweep(self, ops):
        steps = [
            ("update", "set", ("big1", "A" * 1500)),
            ("update", "set", ("big2", "B" * 2500)),
            ("update", "set", ("big1", "C" * 1500)),
        ]
        result = CrashPointSweep(steps, ops).run()
        result.assert_clean()

    def test_crash_during_first_ever_update(self, ops):
        steps = [("update", "set", ("only", "value"))]
        result = CrashPointSweep(steps, ops).run()
        result.assert_clean()
