"""The recovery sweep: replica repair checked at every fault point.

The io-fault sweep proves a node degrades safely; the network sweep
proves the RPC layer's at-most-once semantics; this harness proves the
subsystem that *combines* them — the staged
:class:`~repro.nameserver.recover.ReplicaRecoverer` — survives its own
failure modes.  Recovery is a long multi-RPC conversation over exactly
the transports the net sweep quantifies, and it persists a resume point
across every stage boundary, so two quantifications apply:

1. **Network faults.**  Run one full recovery of a blank node from a
   healthy peer over a :class:`~repro.rpc.faults.FaultyTransport` with no
   fault scheduled and count the network events (N = one per request +
   one per reply).  Then, for every event k in 1..N and every fault kind
   (``drop`` / ``sever`` / ``delay``), run the recovery from scratch with
   the fault scheduled at event k.  The client's retransmission plus the
   recoverer's own stage retries must absorb the fault: recovery
   completes, the rebuilt replica's state equals the source's, and no
   history record is applied twice (the re-bound names in the seed make
   a doubled replay visible).  If a run does give up with
   :class:`~repro.nameserver.recover.RecoveryFailed`, the staged files
   must still be invisible to restarts and a second run (the operator
   retry) must finish the job.

2. **Crashes at stage boundaries.**  The recoverer calls its
   ``stage_observer`` at every stage entry and after every durable
   snapshot chunk.  Run once to enumerate those points, then crash
   (raise out of the observer, drop unsynced file state) at each one.
   Before the cutover commit the directory must show *no current
   version* — the half-shipped snapshot is invisible — and a fresh
   recoverer must resume and complete with the source's exact state.

3. **The wedge.**  Both quantifications again (``wedged=True``) against
   a source that has taken more than ``2 * HISTORY_WINDOW`` updates since
   its last checkpoint and has no checkpoint policy: its history window
   no longer reaches back to the snapshot it ships, so LOG_TAIL meets
   :class:`~repro.nameserver.errors.HistoryTruncated` and the recoverer
   must renegotiate — once — against a checkpoint the source takes on
   request, under the same faults and crashes.

Run standalone (the CI job does)::

    PYTHONPATH=src python -m repro.sim.recoversweep
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from repro.core import HEALTHY
from repro.core.version import read_current_version
from repro.nameserver.client import RemoteNameServer
from repro.nameserver.operations import HISTORY_WINDOW
from repro.nameserver.recover import RecoveryFailed, ReplicaRecoverer
from repro.nameserver.replication import Replica
from repro.nameserver.server import NAMESERVER_INTERFACE
from repro.rpc import (
    FaultyTransport,
    LAN_1987,
    LoopbackTransport,
    NetworkFaultInjector,
    NullNetworkInjector,
    RetryPolicy,
    RpcServer,
)
from repro.sim.clock import SimClock
from repro.storage import SimFS

#: network fault kinds the sweep schedules (see repro.rpc.faults)
SWEEP_KINDS = ("drop", "sever", "delay")

#: The source replica's seed: binds on both sides of a checkpoint, with
#: a re-bound name, so the shipped snapshot and the log tail both carry
#: state and a doubled or dropped replay changes the outcome.
SOURCE_SEED: list[tuple[str, object]] = [
    ("svc/web/alpha", 1),
    ("svc/web/beta", 2),
    ("svc/db/gamma", 3),
    ("cfg/ttl", 60),
]
SOURCE_TAIL: list[tuple[str, object]] = [
    ("svc/web/alpha", 4),
    ("cfg/quota", 5),
]


class SimulatedCrash(Exception):
    """Raised out of the stage observer to model a machine halt."""


@dataclass
class RecoveryFaultOutcome:
    """One faulted recovery run against the source-state model."""

    fault_at: int
    kind: str
    #: "network" or "crash"
    mode: str
    fired: bool = False
    completed: bool = False
    retried_run: bool = False
    resumed: bool = False
    bytes_shipped: int = 0
    entries_replayed: int = 0
    failure: str | None = None


@dataclass
class RecoverySweepResult:
    network_events: int
    crash_points: int
    outcomes: list[RecoveryFaultOutcome] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list[RecoveryFaultOutcome]:
        return [o for o in self.outcomes if o.failure is not None]

    @property
    def resumed_runs(self) -> int:
        return sum(1 for o in self.outcomes if o.resumed)

    def assert_clean(self) -> None:
        if self.failures:
            first = self.failures[0]
            raise AssertionError(
                f"{len(self.failures)} of {self.runs} faulted recoveries "
                f"violated the repair invariants; first: {first.mode} "
                f"fault {first.fault_at} kind={first.kind}: {first.failure}"
            )

    def summary(self) -> str:
        return (
            f"{self.runs} recoveries over {self.network_events} network "
            f"events + {self.crash_points} crash points: "
            f"{len(self.failures)} failures, {self.resumed_runs} resumed "
            f"from a durable stage boundary"
        )

    def report(self) -> dict:
        """JSON-serialisable report (the CI job uploads this artifact)."""
        return {
            "network_events": self.network_events,
            "crash_points": self.crash_points,
            "runs": self.runs,
            "failures": len(self.failures),
            "resumed_runs": self.resumed_runs,
            "outcomes": [asdict(o) for o in self.outcomes],
        }


class RecoverySweep:
    """Sweeps one blank-node recovery over every fault point."""

    def __init__(
        self,
        kinds: tuple[str, ...] = SWEEP_KINDS,
        chunk_size: int = 96,
        stage_retries: int = 3,
        wedged: bool = False,
    ) -> None:
        unknown = set(kinds) - set(SWEEP_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        self.kinds = kinds
        #: small on purpose: several snapshot_chunk RPCs per recovery
        self.chunk_size = chunk_size
        self.stage_retries = stage_retries
        #: the source's history window has moved past its last checkpoint
        self.wedged = wedged

    # -- one recovery world ----------------------------------------------------

    def _build(self, injector: NetworkFaultInjector, seed: int):
        """A seeded source replica served over faultable loopback RPC,
        and a blank target directory; returns everything plus a closer."""
        clock = SimClock()
        source = Replica(SimFS(clock=clock), "source", clock=clock)
        for path, value in SOURCE_SEED:
            source.bind(path, value)
        source.checkpoint()
        for path, value in SOURCE_TAIL:
            source.bind(path, value)
        if self.wedged:
            for n in range(2 * HISTORY_WINDOW):
                source.bind("cfg/generation", n)
        rpc = RpcServer()
        rpc.export(NAMESERVER_INTERFACE, source)
        inner = LoopbackTransport(rpc, clock=clock, network=LAN_1987)
        transport = FaultyTransport(inner, injector, clock=clock)
        peer = RemoteNameServer(
            transport,
            client_id="recoversweep",
            clock=clock,
            rng=random.Random(seed),
            retry=RetryPolicy(
                max_attempts=4,
                base_delay_seconds=0.005,
                max_delay_seconds=0.1,
                deadline_seconds=60.0,
            ),
        )
        fs = SimFS(clock=clock)
        return clock, source, peer, fs, peer.close

    def _recoverer(
        self, fs: SimFS, peer: RemoteNameServer, clock, observer=None
    ) -> ReplicaRecoverer:
        return ReplicaRecoverer(
            fs,
            "reborn",
            [peer],
            chunk_size=self.chunk_size,
            stage_retries=self.stage_retries,
            clock=clock,
            stage_observer=observer,
        )

    def _expected_state(self, source: Replica) -> dict:
        return {
            "/".join(path): value for path, value in source.read_subtree()
        }

    def _judge(
        self,
        outcome: RecoveryFaultOutcome,
        replica,
        source: Replica,
        report,
    ) -> list[str]:
        failures: list[str] = []
        if replica.db.health != HEALTHY:
            failures.append(
                f"recovered replica reports health={replica.db.health!r}"
            )
        recovered = {
            "/".join(path): value for path, value in replica.read_subtree()
        }
        expected = self._expected_state(source)
        if recovered != expected:
            failures.append(
                f"recovered state {recovered!r} != source state "
                f"{expected!r} (a record was lost or applied twice)"
            )
        if replica.summary() != source.summary():
            failures.append(
                f"version vectors diverge after recovery: "
                f"{replica.summary()!r} != {source.summary()!r}"
            )
        outcome.bytes_shipped += report.bytes_shipped
        outcome.entries_replayed += report.entries_replayed
        return failures

    # -- the network-fault quantification --------------------------------------

    def count_events(self) -> int:
        """Dry run: network events one clean recovery generates."""
        injector = NullNetworkInjector()
        _clock, _source, peer, fs, closer = self._build(injector, seed=0)
        try:
            replica = self._recoverer(fs, peer, _clock).run()
            replica.db.close()
        finally:
            closer()
        return injector.events_seen

    def count_crash_points(self) -> int:
        """Dry run: observer callbacks one clean recovery makes."""
        points = [0]

        def observer(_point: str) -> None:
            points[0] += 1

        _clock, _source, peer, fs, closer = self._build(
            NullNetworkInjector(), seed=0
        )
        try:
            replica = self._recoverer(fs, peer, _clock, observer).run()
            replica.db.close()
        finally:
            closer()
        return points[0]

    def run(self, max_events: int | None = None) -> RecoverySweepResult:
        """Both quantifications; returns per-fault-state outcomes."""
        events = self.count_events()
        crash_points = self.count_crash_points()
        swept_events = (
            events if max_events is None else min(events, max_events)
        )
        swept_points = (
            crash_points
            if max_events is None
            else min(crash_points, max_events)
        )
        result = RecoverySweepResult(
            network_events=events, crash_points=crash_points
        )
        for fault_at in range(1, swept_events + 1):
            for kind in self.kinds:
                result.outcomes.append(self._run_network(fault_at, kind))
        for point in range(1, swept_points + 1):
            result.outcomes.append(self._run_crash(point))
        return result

    def _run_network(self, fault_at: int, kind: str) -> RecoveryFaultOutcome:
        injector = NetworkFaultInjector(fault_at_event=fault_at, kind=kind)
        seed = fault_at * 8 + len(kind)
        clock, source, peer, fs, closer = self._build(injector, seed)
        outcome = RecoveryFaultOutcome(fault_at, kind, mode="network")
        failures: list[str] = []
        try:
            recoverer = self._recoverer(fs, peer, clock)
            try:
                replica = recoverer.run()
            except RecoveryFailed:
                # The fault exhausted the retries: allowed, but the
                # staged files must stay invisible and the operator's
                # next attempt must succeed.
                outcome.retried_run = True
                if read_current_version(fs) is not None:
                    failures.append(
                        "a failed recovery left a committed version behind"
                    )
                injector.disarm()
                recoverer = self._recoverer(fs, peer, clock)
                try:
                    replica = recoverer.run()
                except RecoveryFailed as exc:
                    outcome.failure = (
                        f"recovery failed even after the fault cleared: "
                        f"{exc}"
                    )
                    return outcome
            except Exception as exc:  # noqa: BLE001 - any escape is a finding
                outcome.failure = (
                    f"recovery raised outside the typed surface: {exc!r}"
                )
                return outcome
            outcome.completed = True
            outcome.fired = bool(injector.injected)
            outcome.resumed = recoverer.report.resumed
            failures.extend(
                self._judge(outcome, replica, source, recoverer.report)
            )
            replica.db.close()
        finally:
            closer()
        if failures:
            outcome.failure = "; ".join(failures)
        return outcome

    # -- the crash-at-stage-boundary quantification ----------------------------

    def _run_crash(self, point: int) -> RecoveryFaultOutcome:
        clock, source, peer, fs, closer = self._build(
            NullNetworkInjector(), seed=point
        )
        outcome = RecoveryFaultOutcome(point, "crash", mode="crash")
        failures: list[str] = []
        seen = [0]
        committed_before_crash = [False]

        def observer(stage_point: str) -> None:
            seen[0] += 1
            if seen[0] == point:
                # Only the DONE callback runs after the cutover commit.
                committed_before_crash[0] = stage_point == "done"
                raise SimulatedCrash(stage_point)

        try:
            try:
                self._recoverer(fs, peer, clock, observer).run()
                outcome.failure = (
                    f"crash point {point} was never reached "
                    f"({seen[0]} observer calls)"
                )
                return outcome
            except SimulatedCrash:
                pass
            outcome.fired = True
            fs.crash()  # unsynced state is gone, like the machine it ran on
            current = read_current_version(fs)
            if not committed_before_crash[0] and current is not None:
                failures.append(
                    f"crash at point {point} left version "
                    f"{current.number} visible before the cutover commit"
                )
            recoverer = self._recoverer(fs, peer, clock)
            try:
                replica = recoverer.run()
            except RecoveryFailed as exc:
                outcome.failure = f"resume after crash failed: {exc}"
                return outcome
            outcome.completed = True
            outcome.resumed = recoverer.report.resumed
            failures.extend(
                self._judge(outcome, replica, source, recoverer.report)
            )
            replica.db.close()
        finally:
            closer()
        if failures:
            outcome.failure = "; ".join(failures)
        return outcome


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the sweep, print the summary, exit 0/1."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="fault sweep for staged replica recovery"
    )
    parser.add_argument(
        "--max-events", type=int, default=None,
        help="sweep only fault points 1..N per mode (default: all)",
    )
    parser.add_argument(
        "--kinds", nargs="+", default=list(SWEEP_KINDS),
        choices=list(SWEEP_KINDS),
    )
    parser.add_argument(
        "--report", default=None,
        help="write a JSON report of every outcome to this path",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    kinds = tuple(args.kinds)
    result = RecoverySweep(kinds).run(args.max_events)
    print(result.summary())
    # Bigger pages for the wedge: its second snapshot carries a window of
    # history, and the chunk loop is already swept above.
    wedge = RecoverySweep(kinds, chunk_size=8192, wedged=True).run(args.max_events)
    print("history-window wedge: " + wedge.summary())
    outcomes = result.outcomes + wedge.outcomes
    if args.verbose:
        for outcome in outcomes:
            status = "FAIL" if outcome.failure else "ok"
            print(
                f"  {outcome.mode:7s} {outcome.fault_at:3d} "
                f"{outcome.kind:6s} fired={outcome.fired} "
                f"resumed={outcome.resumed} {status}"
            )
    for outcome in result.failures + wedge.failures:
        print(
            f"FAIL {outcome.mode} fault {outcome.fault_at} "
            f"kind={outcome.kind}: {outcome.failure}"
        )
    if args.report is not None:
        with open(args.report, "w", encoding="ascii") as f:
            json.dump({**result.report(), "wedge": wedge.report()}, f, indent=2)
        print(f"report written to {args.report}")
    return 1 if result.failures or wedge.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
