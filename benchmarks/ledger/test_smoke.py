"""Run the whole benchmark in --quick mode and hold it to BENCHMARK.json."""

import io
import json
import os
import subprocess
import sys

import compare
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_manifest_is_benchmark_json():
    assert declared() == metrics.manifest()


def test_quick_run_prints_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "quick.jsonl"
    spans = tmp_path / "spans.jsonl"
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--quick",
            "--out", str(out), "--trace-out", str(spans), "--dir", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    by_workload = {rec["workload"]: rec for rec in records}

    workloads = [name for name, _ in metrics.WORKLOADS]
    assert list(by_workload) == workloads + ["probes"]
    # what BENCHMARK.json declares is what ran, plus the one ungated workload
    gated = [w["name"] for w in declared()["workloads"]]
    assert gated == [name for name in workloads if name not in metrics.UNGATED]
    end_to_end = {name for name, *_ in metrics.END_TO_END}
    per_workload = {name for name, *_ in metrics.PER_WORKLOAD_LAYER}
    assert end_to_end == {m["name"] for m in declared()["end_to_end"]}
    assert per_workload | set(by_workload["probes"]["metrics"]) == {
        m["name"] for m in declared()["per_layer"]
    }
    for name in workloads:
        rec = by_workload[name]
        assert set(rec["metrics"]) == end_to_end | per_workload
        assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] > 0
        assert all(rec["metrics"][m]["value"] > 0 for m in end_to_end)
        assert name in done.stdout
    assert set(by_workload["probes"]["metrics"]) == {
        name for name, *_ in metrics.PROBE_LAYER
    }
    for metric in end_to_end | per_workload | set(by_workload["probes"]["metrics"]):
        assert metric in done.stdout

    # the traced pass wrote its spans; a bind's storage children sit inside it
    rows = [
        json.loads(line)
        for line in (tmp_path / "spans.jsonl.embedded_durable").read_text().splitlines()
    ]
    ops = {row["span"]: row for row in rows if row["parent"] is None}
    children = [row for row in rows if row["parent"] in ops]
    assert children and {row["name"] for row in children} >= {
        "storage.append", "storage.fsync"
    }
    for row in children:
        op = ops[row["parent"]]
        assert op["start"] <= row["start"] <= row["end"] <= op["end"]
        assert row["op_id"] == op["op_id"] == op["span"]

    # nothing the run made is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["quick.jsonl"] + [f"spans.jsonl.{name}" for name in workloads]
    )

    # a set of runs agrees with itself
    table = compare.rows(compare.load(str(out)), compare.load(str(out)))
    assert len(table) == len(workloads) * len(end_to_end)
    assert {row["verdict"] for row in table} == {"within"}
    report = io.StringIO()
    assert compare.main([str(out), str(out)], out=report) == 0
    assert "routed_cluster" in report.getvalue()


def test_driver_contract_output(tmp_path):
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--quick",
            "--workload", "embedded_relaxed", "--seed", "7", "--trace", "1",
            "--dir", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {name for name, *_ in metrics.PER_LAYER}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())
