"""The ledger benchmark's one command.

    python benchmarks/ledger/run.py --seed 1987            # everything
    python benchmarks/ledger/run.py --quick                # smoke, <= 20 s
    python benchmarks/ledger/run.py --workload embedded_durable \
        --seed 7 --seconds 15 --trace 0                    # one run, as the driver calls it
    python benchmarks/ledger/run.py compare A.jsonl B.jsonl

Without ``--workload`` it runs every workload — an untraced section for
the end-to-end metrics and a traced one for that workload's layer
metrics — then the layer probes once, and prints every metric by name
with its unit and sample count.  With ``--workload`` it runs that one
and prints a single JSON object as its last line of output: the
end-to-end metrics for ``--trace 0``, every per-layer metric for
``--trace 1``.  The exit status is non-zero when any output check
failed.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.normpath(os.path.join(_HERE, "..", "..", "src"))
# The program under test is the source tree this file sits in, for this
# process and for the server processes it spawns; nothing is installed.
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

import compare  # noqa: E402
from metrics import END_TO_END, PER_LAYER, RUN_SECONDS, UNITS, WORKLOADS  # noqa: E402
from probes import run_probes, storage_probe  # noqa: E402
from workloads import WORKLOADS as SPECS, Result, run_workload  # noqa: E402

#: of a traced run's ``--seconds``: an untraced section to compare with,
#: the traced section, and the rest for the layer walk
_UNTRACED_SHARE, _TRACED_SHARE, _WALK_SHARE = 0.2, 0.3, 0.5


def environment(workdir: str) -> dict:
    _, fsync_us = storage_probe(os.path.join(workdir, "env-probe"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "fsync_probe_us": round(fsync_us, 1),
    }


def kill_children() -> None:
    """SIGKILL whatever this process spawned and has not yet stopped."""
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        if parent == me:
            try:
                os.kill(int(entry), signal.SIGKILL)
                os.waitpid(int(entry), 0)
            except OSError:
                pass  # already gone, or already reaped by its Popen


def record(result: Result, metrics: dict, args, env: dict, trace: str) -> dict:
    return {
        "workload": result.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "quick": args.quick,
        "env": env,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "metrics": {
            name: {"value": value, "unit": UNITS[name], "samples": samples}
            for name, (value, samples) in metrics.items()
        },
    }


def show(rec: dict, out) -> None:
    for name, m in rec["metrics"].items():
        out.write(
            f"{rec['workload']:20} {name:38} {m['value']:16.4f} "
            f"{m['unit']:6} n={m['samples']}\n"
        )
    out.write(
        f"{rec['workload']:20} attempted={rec['attempted']} failed={rec['failed']} "
        f"correct={rec['correct']}\n"
    )
    for problem in rec["problems"]:
        out.write(f"{rec['workload']:20} PROBLEM: {problem}\n")
    out.flush()


def run(args, workdir: str, env: dict) -> bool:
    """Run what the arguments ask for; returns whether every check passed."""
    human = sys.stdout if args.workload is None else sys.stderr
    if args.trace == 0:
        untraced_s, traced_s = args.seconds, 0.0
    elif args.trace == 1:
        untraced_s = args.seconds * _UNTRACED_SHARE
        traced_s = args.seconds * _TRACED_SHARE
    else:
        untraced_s, traced_s = args.seconds, args.seconds * _TRACED_SHARE
    trace = "both" if args.trace is None else str(args.trace)
    records = []
    names = [args.workload] if args.workload else [name for name, _ in WORKLOADS]
    for name in names:
        result = run_workload(
            SPECS[name], args.seed, untraced_s, traced_s, workdir, args.quick
        )
        if args.workload and traced_s:
            # The driver wants every per-layer metric in the one object.
            result.per_layer.update(
                run_probes(args.seed, workdir, args.seconds * _WALK_SHARE, args.quick)
            )
        metrics = {} if args.trace == 1 else dict(result.end_to_end)
        metrics.update(result.per_layer)
        records.append(record(result, metrics, args, env, trace))
        show(records[-1], human)
        if args.trace_out and result.spans is not None:
            result.spans.write(
                args.trace_out if args.workload else f"{args.trace_out}.{name}"
            )
    if not args.workload and traced_s:
        probes = run_probes(args.seed, workdir, args.seconds * _WALK_SHARE, args.quick)
        records.append(record(Result("probes"), probes, args, env, trace))
        show(records[-1], human)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as out:
            for rec in records:
                out.write(json.dumps(rec) + "\n")
    if args.workload:
        (rec,) = records
        wanted = PER_LAYER if args.trace == 1 else END_TO_END
        print(
            json.dumps(
                {
                    "correct": rec["correct"],
                    "attempted": rec["attempted"],
                    "failed": rec["failed"],
                    "metrics": {
                        name: {"value": rec["metrics"][name]["value"], "unit": unit}
                        for name, unit, *_ in wanted
                    },
                }
            ),
            flush=True,
        )
    return all(rec["correct"] for rec in records)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), default=None)
    parser.add_argument("--seed", type=int, default=1987)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed section per workload (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                        "(default: both, or 0 with --workload)")
    parser.add_argument("--quick", action="store_true",
                        help="small data, sub-second sections: a smoke run")
    parser.add_argument("--out", default=None,
                        help="append one JSON line per run to this file")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced section's spans here as JSON lines")
    parser.add_argument("--dir", default=None,
                        help="parent for the run's data directory "
                        "(default: .run/ beside this file); removed on exit")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.6 if args.quick else float(RUN_SECONDS)
    if args.workload and args.trace is None:
        args.trace = 0

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parent = args.dir or os.path.join(_HERE, ".run")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ledger-", dir=parent)
    try:
        env = environment(workdir)
        print(f"# ledger benchmark: {env}", file=sys.stderr)
        return 0 if run(args, workdir, env) else 1
    finally:
        kill_children()
        shutil.rmtree(workdir, ignore_errors=True)
        if args.dir is None:
            with contextlib.suppress(OSError):  # another run is using it
                os.rmdir(parent)


if __name__ == "__main__":
    sys.exit(main())
