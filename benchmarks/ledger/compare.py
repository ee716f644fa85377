"""``run.py compare A B``: do two sets of runs agree within the bounds?

Each file is the JSON-lines output of ``run.py --out``.  For every
workload and end-to-end metric the tool prints both medians, B's ratio to
A, the metric's bound and a verdict:

* ``unresolved`` — a set's own run-to-run spread (the distance between
  its quartiles as a share of its median) is wider than the bound, so
  the comparison cannot say the metric is unchanged;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``within`` — otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys

from metrics import END_TO_END


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> the values of every run in the file."""
    runs: dict[str, dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            metrics = runs.setdefault(record["workload"], {})
            for name, entry in record["metrics"].items():
                metrics.setdefault(name, []).append(entry["value"])
    return runs


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def rows(a: dict, b: dict) -> list[dict]:
    out = []
    for workload in a:
        if workload not in b:
            continue
        for name, unit, better, bound in END_TO_END:
            if name not in a[workload] or name not in b[workload]:
                continue
            va, vb = a[workload][name], b[workload][name]
            base, new = statistics.median(va), statistics.median(vb)
            ratio = new / base
            worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
            spreads = (spread(va), spread(vb))
            if max(spreads) > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "within"
            out.append(
                dict(
                    workload=workload, metric=name, unit=unit, a=base, b=new,
                    ratio=ratio, bound=bound, verdict=verdict, runs=(len(va), len(vb)),
                    spread=spreads,
                )
            )
    return out


def main(argv: list[str], out=sys.stdout) -> int:
    if len(argv) != 2:
        out.write("usage: run.py compare A.jsonl B.jsonl\n")
        return 2
    table = rows(load(argv[0]), load(argv[1]))
    out.write(
        f"{'workload':20} {'metric':24} {'A':>12} {'B':>12} {'B/A':>7} "
        f"{'bound':>6} {'spread A/B':>13} {'runs':>6}  verdict\n"
    )
    for r in table:
        out.write(
            f"{r['workload']:20} {r['metric']:24} {r['a']:12.4f} {r['b']:12.4f} "
            f"{r['ratio']:7.3f} {r['bound']:6.3f} "
            f"{r['spread'][0]:6.3f}/{r['spread'][1]:<6.3f} "
            f"{r['runs'][0]:>3}/{r['runs'][1]:<3} {r['verdict']} ({r['unit']})\n"
        )
    return 1 if any(r["verdict"] == "worse" for r in table) else 0
