"""The benchmark-regression sentry: a memory for the perf trajectory.

The paper justifies its design with measured numbers; this module makes
sure those numbers cannot silently drift.  Every E1–E16 benchmark emits
*normalized metrics* — name → ``{"value", "unit", "direction"}`` — into
its ``BENCH_E<n>.json`` (see ``benchmarks/conftest.py``), runs append to
a committed baseline store ``benchmarks/results/trajectory.jsonl`` (one
JSON object per run), and::

    PYTHONPATH=src python -m repro.obs.regress

compares the current results directory against the recent baseline
window with a robust statistical test: the tolerance band around the
baseline **median** is ``max(mad_k·MAD, rel_tol·|median|, abs_tol)``,
where MAD is the median absolute deviation — robust to the odd outlier
run in a way mean±stddev is not.  A metric whose ``direction`` is
``"lower"`` regresses by exceeding the band upward, ``"higher"`` by
falling below it, ``"none"`` is informational and never gates.  The
process exits nonzero on any regression (or on a metric that vanished),
so CI can gate on it; a first run with no baseline passes.

Per-metric tolerances live in an optional JSON config (``--config``,
default ``benchmarks/results/regress.json``) mapping metric name →
``{"rel_tol": ..., "mad_k": ..., "abs_tol": ..., "direction": ...}``.

A metric whose effective ``mad_k`` and ``rel_tol`` are both 0 is an exact
count (source lines, say): it is judged against the **newest** run that
holds it rather than the window median, so one recorded run re-bases it
and "ok" means "did not move past ``abs_tol`` since the last run".
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import dataclass
from statistics import median

#: accepted metric directions
DIRECTIONS = ("lower", "higher", "none")

#: default comparison tunables (overridable globally and per metric)
DEFAULT_WINDOW = 20
DEFAULT_MAD_K = 5.0
DEFAULT_REL_TOL = 0.05
DEFAULT_ABS_TOL = 1e-9

TRAJECTORY_FILE = "trajectory.jsonl"


def metric(value: float, unit: str = "", direction: str = "lower") -> dict:
    """One normalized benchmark metric entry.

    ``direction`` says which way is better: ``"lower"`` (latencies,
    bytes), ``"higher"`` (throughput), or ``"none"`` (informational —
    tracked in the trajectory but never a regression, e.g. source-line
    counts that legitimately grow).
    """
    if direction not in DIRECTIONS:
        raise ValueError(
            f"direction must be one of {DIRECTIONS}, not {direction!r}"
        )
    return {"value": float(value), "unit": unit, "direction": direction}


# -- stores ---------------------------------------------------------------------


def load_results(results_dir: str) -> dict[str, dict]:
    """All normalized metrics from a results directory's ``BENCH_*.json``."""
    out: dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json"))):
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
        for name, entry in (data.get("metrics") or {}).items():
            out[name] = dict(entry)
    return out


def load_trajectory(path: str) -> list[dict]:
    """The baseline store: one JSON run object per line, oldest first."""
    if not os.path.exists(path):
        return []
    runs: list[dict] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def append_run(
    path: str,
    metrics: dict[str, dict],
    run_id: str | None = None,
    note: str | None = None,
) -> dict:
    """Append one run's metrics to the trajectory store; returns the entry."""
    existing = load_trajectory(path)
    entry: dict = {
        "run_id": run_id if run_id else f"run-{len(existing) + 1}",
        "metrics": {name: dict(m) for name, m in sorted(metrics.items())},
    }
    if note:
        entry["note"] = note
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


# -- comparison -----------------------------------------------------------------


@dataclass
class Verdict:
    """One metric's comparison against the baseline window."""

    metric: str
    status: str  # "ok" | "regressed" | "improved" | "new" | "missing" | "info"
    value: float | None = None
    unit: str = ""
    direction: str = "lower"
    baseline_median: float | None = None
    tolerance: float | None = None
    history: int = 0
    #: what ``baseline_median`` is: the window "median", or the "newest"
    #: run's value for an exact count
    baseline: str = "median"

    @property
    def gating(self) -> bool:
        return self.status in ("regressed", "missing")

    def describe(self) -> str:
        if self.status == "missing":
            return (
                f"{self.metric}: present in the baseline but absent from "
                f"this run"
            )
        base = f"{self.metric} = {self.value:g}{self.unit}"
        if self.status in ("new", "info"):
            return f"{base} ({self.status})"
        return (
            f"{base} vs {self.baseline} {self.baseline_median:g} "
            f"± {self.tolerance:g} over {self.history} run(s): {self.status}"
        )


def _tolerance(
    history: list[float],
    med: float,
    mad_k: float,
    rel_tol: float,
    abs_tol: float,
) -> float:
    mad = median(abs(x - med) for x in history)
    return max(mad_k * mad, rel_tol * abs(med), abs_tol)


def compare(
    current: dict[str, dict],
    trajectory: list[dict],
    window: int = DEFAULT_WINDOW,
    mad_k: float = DEFAULT_MAD_K,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    overrides: dict[str, dict] | None = None,
) -> list[Verdict]:
    """Judge every current metric against the recent baseline window.

    Also reports metrics that the baseline window knows but the current
    run does not emit (``"missing"`` — a benchmark silently dropping a
    number is itself a regression of the measurement discipline).
    """
    overrides = overrides or {}
    recent = trajectory[-window:] if window > 0 else list(trajectory)
    verdicts: list[Verdict] = []
    for name, entry in sorted(current.items()):
        o = overrides.get(name, {})
        value = float(entry["value"])
        unit = str(entry.get("unit", ""))
        direction = str(o.get("direction", entry.get("direction", "lower")))
        if direction not in DIRECTIONS:
            raise ValueError(f"{name}: bad direction {direction!r}")
        verdict = Verdict(name, "ok", value, unit, direction)
        if direction == "none":
            verdict.status = "info"
            verdicts.append(verdict)
            continue
        history = [
            float(run["metrics"][name]["value"])
            for run in recent
            if name in (run.get("metrics") or {})
        ]
        verdict.history = len(history)
        if not history:
            verdict.status = "new"
            verdicts.append(verdict)
            continue
        k = float(o.get("mad_k", mad_k))
        rel = float(o.get("rel_tol", rel_tol))
        if k == 0 and rel == 0:
            verdict.baseline = "newest"
            med = history[-1]
        else:
            med = median(history)
        tol = _tolerance(history, med, k, rel, float(o.get("abs_tol", abs_tol)))
        verdict.baseline_median = med
        verdict.tolerance = tol
        delta = value - med
        worse = delta > tol if direction == "lower" else delta < -tol
        better = delta < -tol if direction == "lower" else delta > tol
        if worse:
            verdict.status = "regressed"
        elif better:
            verdict.status = "improved"
        verdicts.append(verdict)
    known = {
        name
        for run in recent
        for name in (run.get("metrics") or {})
    }
    for name in sorted(known - set(current)):
        verdicts.append(Verdict(name, "missing"))
    return verdicts


def format_verdicts(verdicts: list[Verdict]) -> str:
    """A terminal table, regressions first."""
    order = {"regressed": 0, "missing": 1, "improved": 2, "new": 3,
             "info": 4, "ok": 5}
    lines = [f"{'status':<10} metric"]
    for verdict in sorted(
        verdicts, key=lambda v: (order.get(v.status, 9), v.metric)
    ):
        lines.append(f"{verdict.status:<10} {verdict.describe()}")
    return "\n".join(lines)


# -- CLI ------------------------------------------------------------------------


def _default_results_dir() -> str:
    return os.path.join("benchmarks", "results")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="Compare benchmark results against the trajectory "
        "baseline; exit nonzero on regression.",
    )
    parser.add_argument(
        "--results-dir", default=_default_results_dir(),
        help="directory holding the current run's BENCH_*.json",
    )
    parser.add_argument(
        "--baseline", default=None,
        help=f"trajectory store (default: <results-dir>/{TRAJECTORY_FILE})",
    )
    parser.add_argument(
        "--config", default=None,
        help="per-metric override JSON "
        "(default: <results-dir>/regress.json when present)",
    )
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help="baseline runs considered (newest N)")
    parser.add_argument("--mad-k", type=float, default=DEFAULT_MAD_K)
    parser.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    parser.add_argument("--abs-tol", type=float, default=DEFAULT_ABS_TOL)
    parser.add_argument(
        "--allow-missing", action="store_true",
        help="do not fail when a baseline metric is absent from this run",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="append this run's metrics to the trajectory store",
    )
    parser.add_argument("--run-id", default=None,
                        help="identifier stored with --record")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    args = parser.parse_args(argv)

    baseline = (
        args.baseline
        if args.baseline is not None
        else os.path.join(args.results_dir, TRAJECTORY_FILE)
    )
    current = load_results(args.results_dir)
    if not current:
        print(
            f"regress: no normalized metrics under {args.results_dir!r} — "
            f"run the benchmarks first (pytest benchmarks -q)",
            file=sys.stderr,
        )
        return 2

    overrides: dict[str, dict] = {}
    config_path = args.config
    if config_path is None:
        candidate = os.path.join(args.results_dir, "regress.json")
        config_path = candidate if os.path.exists(candidate) else None
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as f:
            overrides = json.load(f)

    trajectory = load_trajectory(baseline)
    verdicts = compare(
        current,
        trajectory,
        window=args.window,
        mad_k=args.mad_k,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        overrides=overrides,
    )
    failures = [
        v for v in verdicts
        if v.status == "regressed"
        or (v.status == "missing" and not args.allow_missing)
    ]
    if not args.quiet:
        print(format_verdicts(verdicts))
    counts: dict[str, int] = {}
    for verdict in verdicts:
        counts[verdict.status] = counts.get(verdict.status, 0) + 1
    summary = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
    print(
        f"regress: {len(verdicts)} metrics vs {min(len(trajectory), args.window)}"
        f"/{len(trajectory)} baseline run(s): {summary}"
    )
    if args.record:
        entry = append_run(baseline, current, run_id=args.run_id)
        print(f"recorded run {entry['run_id']!r} to {baseline}")
    if failures:
        for verdict in failures:
            print(f"REGRESSION {verdict.describe()}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
