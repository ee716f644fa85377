"""The sweep core: one fault at every point, every run model-checked.

Each model checker in this package quantifies a claim over every point
at which one fault can land — a machine halt (:mod:`repro.sim.crashtest`),
a lost message (:mod:`repro.sim.netsweep`), a failing disk
(:mod:`repro.sim.iosweep`), a fault during replica recovery
(:mod:`repro.sim.recoversweep`), during an online shard split
(:mod:`repro.sim.shardsweep`) or a dead node (:mod:`repro.sim.chaossweep`).
They differ in their world, their script and their judge; this module
owns what they share:

* **enumeration** — a scenario's fault-free dry run counts the fault
  points of each *mode* (network events, crash points, …); the core caps
  each count at ``max_events`` and runs every point 1..N of every phase
  against every combination of that phase's axis values, in that order;
* **outcomes** — every run fills one :class:`Outcome` (a scenario adds its
  own counters); a run whose scheduled fault never fired fails, so a dry
  run and a faulted run can never silently disagree; any exception that
  escapes a run is a finding, not a crash of the sweep;
* **results** — one :class:`SweepResult` with totals, a summary line and
  a JSON report;
* **stage observers** — :class:`AtCall` acts at exactly the k-th call of
  a ``stage_observer`` hook and counts calls in the dry run;
* **the CLI**::

      PYTHONPATH=src python -m repro.sim.sweep {net,io,recover,shard,chaos} \\
          [--max-events N] [--kinds ...] [--report PATH] [--verbose]

  plus the axis flags a scenario declares (``net --server-model``,
  ``io --durability``).  Exit status 1 means some run failed.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.storage.errors import SimulatedCrash

#: CLI name -> the scenario class (imported on use: scenarios import this)
SCENARIOS = {
    "net": "repro.sim.netsweep.NetworkFaultSweep",
    "io": "repro.sim.iosweep.IoFaultSweep",
    "recover": "repro.sim.recoversweep.RecoverySweep",
    "shard": "repro.sim.shardsweep.ShardSweep",
    "chaos": "repro.sim.chaossweep.ChaosSweep",
}


@dataclass
class Outcome:
    """One faulted run: where the fault was scheduled, what came of it."""

    fault_at: int
    kind: str
    #: which quantification the run belongs to ("network", "crash", …)
    mode: str
    #: the scheduled fault actually happened
    fired: bool = False
    #: the scenario's work ran to its end, possibly after a retry or a
    #: resume (a crash or a degraded disk stops it short)
    completed: bool = False
    #: finished from persisted progress instead of from scratch
    resumed: bool = False
    #: a first attempt gave up in a typed way and a second one ran
    retried_run: bool = False
    #: every violated invariant, joined by "; " (None: the run is clean)
    failure: str | None = None


@dataclass
class SweepResult:
    """Every outcome of one sweep, and the fault points it ran over."""

    #: mode -> fault points the dry run counted (before ``max_events``)
    points: dict[str, int]
    #: outcome fields the summary and the report total
    totals: tuple[str, ...] = ()
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.failure is not None]

    def total(self, name: str) -> int:
        """One outcome field summed: true flags, numbers, list lengths."""
        values = (getattr(outcome, name) for outcome in self.outcomes)
        return sum(len(v) if isinstance(v, list) else int(v) for v in values)

    def assert_clean(self) -> None:
        if self.failures:
            first = self.failures[0]
            raise AssertionError(
                f"{len(self.failures)} of {self.runs} runs failed; first: "
                f"{first.mode} {first.kind} at fault point {first.fault_at}: "
                f"{first.failure}"
            )

    def summary(self) -> str:
        points = " + ".join(f"{n} {mode}" for mode, n in self.points.items())
        totals = "".join(
            f", {self.total(name)} {name.replace('_', ' ')}"
            for name in self.totals
        )
        return (
            f"{self.runs} runs over {points} fault points: "
            f"{len(self.failures)} failures{totals}"
        )

    def report(self) -> dict:
        """JSON-serialisable: the summary's numbers and every outcome."""
        return {
            "points": self.points,
            "runs": self.runs,
            "failures": len(self.failures),
            "totals": {name: self.total(name) for name in self.totals},
            "outcomes": [asdict(outcome) for outcome in self.outcomes],
        }


class Sweep:
    """A scenario on the core: its world, its script and its judge.

    A subclass sets :attr:`phases` and :attr:`outcome_type` and implements
    :meth:`dry_run` and :meth:`run_one`; :meth:`run` does the rest.
    """

    #: the :class:`Outcome` subclass carrying this scenario's counters
    outcome_type: type[Outcome] = Outcome
    #: ``(mode, {outcome field: values})`` per quantification, in order
    phases: list[tuple[str, dict[str, tuple]]] = []
    #: outcome fields :class:`SweepResult` totals
    TOTALS: tuple[str, ...] = ()
    #: CLI flag -> argparse options; ``dest`` is a constructor argument
    FLAGS: dict[str, dict] = {}

    def dry_run(self) -> dict[str, int]:
        """One fault-free run: the number of fault points of each mode."""
        raise NotImplementedError

    def run_one(self, outcome: Outcome) -> list[str]:
        """One run with the fault ``outcome`` schedules; fills in its
        counters and ``fired`` and returns the violated invariants."""
        raise NotImplementedError

    def companions(self, max_events: int | None) -> dict:
        """Checks the CLI runs after this sweep: label -> a
        :class:`SweepResult`, or a list of violations."""
        return {}

    def run(self, max_events: int | None = None) -> SweepResult:
        """Every fault point (the first ``max_events`` of each mode)."""
        result = SweepResult(self.dry_run(), self.TOTALS)
        for mode, axes in self.phases:
            points = result.points[mode]
            swept = points if max_events is None else min(points, max_events)
            for fault_at in range(1, swept + 1):
                for values in itertools.product(*axes.values()):
                    outcome = self.outcome_type(
                        fault_at=fault_at, mode=mode, **dict(zip(axes, values))
                    )
                    try:
                        failures = self.run_one(outcome)
                    except Exception as exc:  # noqa: BLE001 - any escape is a finding
                        failures = [f"run raised {exc!r}"]
                    if not failures and not outcome.fired:
                        failures = [f"fault point {fault_at} never fired"]
                    outcome.failure = "; ".join(failures) or None
                    result.outcomes.append(outcome)
        return result


class AtCall:
    """A ``stage_observer`` that acts at exactly its ``at``-th call.

    Every call first runs ``each`` (a scenario's live traffic, say), then
    counts.  Call ``at`` runs ``action`` — by default a machine halt:
    :class:`~repro.storage.errors.SimulatedCrash`, a ``BaseException``
    no ``except Exception`` in the code under test can swallow.  With
    ``at`` None it only counts, which is the dry run.
    """

    def __init__(
        self,
        at: int | None = None,
        each: Callable[[str], None] | None = None,
        action: Callable[[], None] | None = None,
    ) -> None:
        self.at = at
        self.each = each
        self.action = action
        self.calls = 0
        #: the stage point of call ``at``, once it happened
        self.point: str | None = None

    @property
    def fired(self) -> bool:
        return self.point is not None

    def __call__(self, point: str) -> None:
        if self.each is not None:
            self.each(point)
        self.calls += 1
        if self.calls == self.at:
            self.point = point
            if self.action is None:
                raise SimulatedCrash(self.calls, detail=point)
            self.action()


def _scenario(name: str) -> type[Sweep]:
    module, _, cls = SCENARIOS[name].rpartition(".")
    return getattr(importlib.import_module(module), cls)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.sim.sweep",
        description="model-check a claim at every fault point",
    )
    scenarios = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        cls = _scenario(name)
        sub = scenarios.add_parser(name, help=cls.__doc__.splitlines()[0])
        sub.add_argument(
            "--max-events", type=int, default=None,
            help="sweep only fault points 1..N per mode (default: all)",
        )
        for flag, options in cls.FLAGS.items():
            sub.add_argument(flag, default=argparse.SUPPRESS, **options)
        sub.add_argument(
            "--report", default=None,
            help="write a JSON report of every outcome to this path",
        )
        sub.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run one scenario, print what it found, exit 0/1."""
    args = _parser().parse_args(argv)
    cls = _scenario(args.scenario)
    sweep = cls(**{
        options["dest"]: getattr(args, options["dest"])
        for options in cls.FLAGS.values()
        if hasattr(args, options["dest"])
    })
    parts = {
        args.scenario: sweep.run(args.max_events),
        **sweep.companions(args.max_events),
    }
    failed = False
    report: dict = {}
    for label, part in parts.items():
        # Under ``python -m`` this module runs twice (as __main__ and as
        # the scenarios' import), so tell parts apart without isinstance
        # on this module's classes.
        if isinstance(part, list):  # a one-shot check's violations
            violations = report[label] = part
            if not part:
                print(f"{label}: clean")
        else:
            print(f"{label}: {part.summary()}")
            for outcome in part.outcomes if args.verbose else ():
                fields = asdict(outcome)
                status = "ok" if fields.pop("failure") is None else "FAIL"
                pairs = " ".join(f"{k}={v}" for k, v in fields.items())
                print(f"  {pairs} {status}")
            violations = [
                f"{o.mode} {o.kind} at fault point {o.fault_at}: {o.failure}"
                for o in part.failures
            ]
            report[label] = part.report()
        for violation in violations:
            print(f"FAIL {label} {violation}")
        failed = failed or bool(violations)
    if args.report is not None:
        with open(args.report, "w", encoding="ascii") as f:
            json.dump(report, f, indent=2)
        print(f"report written to {args.report}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
