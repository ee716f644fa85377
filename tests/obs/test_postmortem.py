"""Postmortem: timeline merging, summaries, and the CLI."""

from __future__ import annotations

import json

from repro.obs.flight import FlightRecorder
from repro.sim.clock import SimClock
from repro.tools.postmortem import (
    build_timeline,
    main,
    render_timeline,
    summarize,
)


def _dump(clock=None):
    clock = clock or SimClock()
    flight = FlightRecorder(clock=clock)
    flight.record("commit_fsync", batch=3)
    clock.advance(1.0)
    flight.record("storage_fault", op="write", file="log")
    clock.advance(1.0)
    flight.record("health_transition", to_state="DEGRADED_READ_ONLY")
    return flight.dump()


class TestBuildTimeline:
    def test_merges_three_sources_sorted_by_time(self):
        dump = _dump()
        spans = [{"name": "rpc.bind", "start": 0.5, "duration": 0.2,
                  "attrs": {"method": "bind"}}]
        slow_ops = [{"name": "db.update", "start": 1.5, "duration": 0.4,
                     "attrs": {}}]
        items = build_timeline(dump, spans, slow_ops)
        assert [i["source"] for i in items] == [
            "flight", "trace", "flight", "slowop", "flight"
        ]
        assert [i["time"] for i in items] == sorted(i["time"] for i in items)
        trace = items[1]
        assert trace["what"] == "rpc.bind"
        assert "200.000ms" in trace["detail"]
        assert "method='bind'" in trace["detail"]

    def test_flight_only_and_empty(self):
        items = build_timeline(_dump())
        assert len(items) == 3
        assert all(i["source"] == "flight" for i in items)
        assert build_timeline({"events": []}) == []
        assert render_timeline([]) == "(empty timeline)"

    def test_equal_time_flight_events_keep_ring_order(self):
        flight = FlightRecorder(clock=SimClock())
        for i in range(5):
            flight.record("tick", i=i)
        items = build_timeline(flight.dump())
        assert [i["detail"] for i in items] == [f"i={n}" for n in range(5)]


class TestSummarize:
    def test_headline_and_noteworthy_ordering(self):
        lines = summarize(_dump())
        assert "3 events retained" in lines[0]
        assert "repro-flight-v1" in lines[0]
        noteworthy = next(line for line in lines if "noteworthy" in line)
        # storage_fault is listed before health_transition, commit_fsync
        # is routine.
        assert noteworthy.index("storage_fault") < noteworthy.index(
            "health_transition"
        )
        routine = next(line for line in lines if "routine" in line)
        assert "commit_fsync" in routine


class TestCli:
    def _write_blackbox(self, tmp_path):
        path = tmp_path / "blackbox.json"
        path.write_text(json.dumps(_dump()))
        return str(path)

    def test_renders_a_dump(self, tmp_path, capsys):
        assert main([self._write_blackbox(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "health_transition" in out
        assert "to_state='DEGRADED_READ_ONLY'" in out

    def test_kind_filter(self, tmp_path, capsys):
        path = self._write_blackbox(tmp_path)
        assert main([path, "--kind", "storage_fault"]) == 0
        out = capsys.readouterr().out
        assert "storage_fault" in out
        assert "commit_fsync" not in out.split("\n\n", 1)[1]

    def test_merges_sidecars(self, tmp_path, capsys):
        path = self._write_blackbox(tmp_path)
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(
            [{"name": "rpc.bind", "start": 0.5, "duration": 0.1}]
        ))
        assert main([path, "--trace", str(trace)]) == 0
        assert "rpc.bind" in capsys.readouterr().out

    def test_exit_2_on_garbage(self, tmp_path, capsys):
        bad = tmp_path / "not_a_dump.json"
        bad.write_text('{"format": "something-else"}')
        assert main([str(bad)]) == 2
        assert "cannot read black box" in capsys.readouterr().err
        missing = tmp_path / "missing.json"
        assert main([str(missing)]) == 2

    def test_exit_2_on_bad_sidecar(self, tmp_path, capsys):
        path = self._write_blackbox(tmp_path)
        bad = tmp_path / "trace.json"
        bad.write_text("{not json")
        assert main([path, "--trace", str(bad)]) == 2
        assert "sidecar" in capsys.readouterr().err


class TestOlderDumps:
    def test_emergency_checkpoint_dump_still_renders(self, tmp_path, capsys):
        """A dump from a node that still snapshotted to a spare directory
        holds ``emergency_checkpoint`` events and a transition to
        ``failed``; both render, as routine history."""
        clock = SimClock()
        flight = FlightRecorder(clock=clock)
        flight.record("storage_fault", op="fsync", error="HardError")
        flight.record(
            "health_transition", from_state="healthy",
            to_state="degraded_read_only", cause="fsync: hard error",
        )
        clock.advance(1.0)
        flight.record("emergency_checkpoint", outcome="failed")
        flight.record(
            "health_transition", from_state="degraded_read_only",
            to_state="failed", cause="emergency checkpoint failed",
        )
        box = tmp_path / "data" / "r1" / "blackbox.json"
        box.parent.mkdir(parents=True)
        box.write_text(flight.dump_json())
        lines = summarize(json.loads(box.read_text()))
        routine = next(line for line in lines if "routine" in line)
        assert "emergency_checkpoint×1" in routine
        assert main([str(box)]) == 0
        out = capsys.readouterr().out
        assert "outcome='failed'" in out
        assert "to_state='failed'" in out
        assert main(["--cluster-dir", str(tmp_path)]) == 0
        assert "emergency_checkpoint" in capsys.readouterr().out
