"""The regression sentry: normalized metrics, trajectory store, verdicts."""

from __future__ import annotations

import json

import pytest

from repro.obs.regress import (
    Verdict,
    append_run,
    compare,
    format_verdicts,
    load_results,
    load_trajectory,
    main,
    metric,
)


def _run(**values):
    """A trajectory entry from name=value pairs (direction 'lower')."""
    return {"metrics": {n: metric(v) for n, v in values.items()}}


class TestMetric:
    def test_normalizes_value_and_defaults(self):
        assert metric(3, "ms") == {
            "value": 3.0, "unit": "ms", "direction": "lower"
        }

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            metric(1.0, "ms", direction="sideways")


class TestStores:
    def test_load_results_merges_bench_files(self, tmp_path):
        (tmp_path / "BENCH_E1.json").write_text(
            json.dumps({"metrics": {"a_ms": metric(1.0, "ms")}})
        )
        (tmp_path / "BENCH_E2.json").write_text(
            json.dumps({"metrics": {"b_ms": metric(2.0, "ms")}})
        )
        (tmp_path / "BENCH_E3.json").write_text(json.dumps({"tables": {}}))
        results = load_results(str(tmp_path))
        assert set(results) == {"a_ms", "b_ms"}

    def test_append_and_load_trajectory(self, tmp_path):
        path = str(tmp_path / "trajectory.jsonl")
        assert load_trajectory(path) == []
        first = append_run(path, {"a_ms": metric(1.0, "ms")})
        second = append_run(path, {"a_ms": metric(1.1, "ms")}, run_id="tag")
        assert first["run_id"] == "run-1"
        assert second["run_id"] == "tag"
        runs = load_trajectory(path)
        assert [r["run_id"] for r in runs] == ["run-1", "tag"]
        assert runs[1]["metrics"]["a_ms"]["value"] == 1.1


class TestCompare:
    def test_first_run_is_new_and_passes(self):
        verdicts = compare({"a_ms": metric(5.0, "ms")}, [])
        assert [v.status for v in verdicts] == ["new"]
        assert not any(v.gating for v in verdicts)

    def test_flat_run_is_ok(self):
        history = [_run(a_ms=5.0) for _ in range(5)]
        (verdict,) = compare({"a_ms": metric(5.01, "ms")}, history)
        assert verdict.status == "ok"
        assert verdict.history == 5

    def test_regression_and_improvement_for_lower(self):
        history = [_run(a_ms=5.0) for _ in range(5)]
        (worse,) = compare({"a_ms": metric(9.0, "ms")}, history)
        (better,) = compare({"a_ms": metric(1.0, "ms")}, history)
        assert worse.status == "regressed" and worse.gating
        assert better.status == "improved" and not better.gating

    def test_direction_higher_flips_the_test(self):
        history = [
            {"metrics": {"rate": metric(100.0, "1/s", direction="higher")}}
            for _ in range(4)
        ]
        current = {"rate": metric(50.0, "1/s", direction="higher")}
        (verdict,) = compare(current, history)
        assert verdict.status == "regressed"
        current = {"rate": metric(200.0, "1/s", direction="higher")}
        (verdict,) = compare(current, history)
        assert verdict.status == "improved"

    def test_direction_none_is_info_and_never_gates(self):
        history = [
            {"metrics": {"lines": metric(100.0, "lines", direction="none")}}
        ]
        current = {"lines": metric(100000.0, "lines", direction="none")}
        (verdict,) = compare(current, history)
        assert verdict.status == "info" and not verdict.gating

    def test_missing_metric_gates(self):
        history = [_run(a_ms=5.0, b_ms=7.0)]
        verdicts = compare({"a_ms": metric(5.0, "ms")}, history)
        missing = [v for v in verdicts if v.status == "missing"]
        assert [v.metric for v in missing] == ["b_ms"]
        assert missing[0].gating

    def test_mad_widens_the_band_for_noisy_baselines(self):
        noisy = [_run(a_ms=v) for v in (4.0, 5.0, 6.0, 4.5, 5.5)]
        # 6.5 is 30% above the median 5.0 — outside rel_tol, inside
        # the MAD band (MAD=0.5, k=5 → ±2.5).
        (verdict,) = compare({"a_ms": metric(6.5, "ms")}, noisy)
        assert verdict.status == "ok"

    def test_window_restricts_history(self):
        history = [_run(a_ms=100.0)] * 10 + [_run(a_ms=5.0)] * 3
        (verdict,) = compare({"a_ms": metric(5.0, "ms")}, history, window=3)
        assert verdict.status == "ok"
        assert verdict.baseline_median == 5.0

    def test_per_metric_overrides(self):
        history = [_run(a_ms=5.0)] * 3
        (verdict,) = compare(
            {"a_ms": metric(5.4, "ms")},
            history,
            overrides={"a_ms": {"rel_tol": 0.10}},
        )
        assert verdict.status == "ok"
        (verdict,) = compare(
            {"a_ms": metric(5.4, "ms")},
            history,
            overrides={"a_ms": {"direction": "none"}},
        )
        assert verdict.status == "info"

    def test_an_exact_count_is_judged_against_the_newest_run(self):
        history = [_run(lines=v) for v in (100.0, 100.0, 120.0)]
        current = {"lines": metric(118.0, "lines")}
        (windowed,) = compare(current, history, mad_k=0.0, rel_tol=0.01)
        assert windowed.status == "regressed"
        assert windowed.baseline_median == 100.0
        (exact,) = compare(current, history, mad_k=0.0, rel_tol=0.0)
        assert exact.status == "improved"
        assert exact.baseline_median == 120.0
        assert "vs newest 120" in exact.describe()
        (overridden,) = compare(
            current, history, overrides={"lines": {"mad_k": 0, "rel_tol": 0}}
        )
        assert overridden.status == "improved"

    def test_format_puts_regressions_first(self):
        text = format_verdicts(
            [
                Verdict("z_ok", "ok", 1.0, baseline_median=1.0,
                        tolerance=0.1, history=3),
                Verdict("a_bad", "regressed", 2.0, baseline_median=1.0,
                        tolerance=0.1, history=3),
            ]
        )
        lines = text.splitlines()
        assert "a_bad" in lines[1] and "z_ok" in lines[2]


class TestCli:
    def _write_results(self, tmp_path, value=5.0):
        (tmp_path / "BENCH_E1.json").write_text(
            json.dumps({"metrics": {"a_ms": metric(value, "ms")}})
        )

    def test_exit_2_without_results(self, tmp_path, capsys):
        assert main(["--results-dir", str(tmp_path)]) == 2
        assert "no normalized metrics" in capsys.readouterr().err

    def test_first_run_passes_then_record_then_gate(self, tmp_path, capsys):
        self._write_results(tmp_path)
        args = ["--results-dir", str(tmp_path)]
        assert main(args) == 0  # no baseline yet
        assert main(args + ["--record", "--run-id", "r1"]) == 0
        capsys.readouterr()
        # Same numbers again: ok against the recorded baseline.
        assert main(args) == 0
        # Degrade and the gate trips.
        self._write_results(tmp_path, value=50.0)
        assert main(args) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_allow_missing_downgrades_the_gate(self, tmp_path):
        self._write_results(tmp_path)
        args = ["--results-dir", str(tmp_path), "--quiet"]
        assert main(args + ["--record"]) == 0
        (tmp_path / "BENCH_E1.json").write_text(
            json.dumps({"metrics": {"other": metric(1.0)}})
        )
        assert main(args) == 1
        assert main(args + ["--allow-missing"]) == 0

    def test_config_overrides_are_read(self, tmp_path):
        self._write_results(tmp_path)
        args = ["--results-dir", str(tmp_path), "--quiet"]
        assert main(args + ["--record"]) == 0
        self._write_results(tmp_path, value=6.0)  # +20% over baseline
        assert main(args) == 1
        (tmp_path / "regress.json").write_text(
            json.dumps({"a_ms": {"rel_tol": 0.5}})
        )
        assert main(args) == 0
