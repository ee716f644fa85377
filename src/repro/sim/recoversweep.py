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

Run standalone (the CI job does; the wedge runs after the plain sweep)::

    PYTHONPATH=src python -m repro.sim.sweep recover
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
    RetryPolicy,
    RpcServer,
)
from repro.rpc.faults import FAULT_KINDS
from repro.sim.clock import SimClock
from repro.sim.sweep import AtCall, Outcome, Sweep
from repro.storage import SimFS
from repro.storage.errors import SimulatedCrash

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


@dataclass
class RecoveryFaultOutcome(Outcome):
    """One faulted recovery run against the source-state model."""

    bytes_shipped: int = 0
    entries_replayed: int = 0


class RecoverySweep(Sweep):
    """Sweeps one blank-node recovery over every fault point."""

    outcome_type = RecoveryFaultOutcome
    TOTALS = ("resumed",)
    FLAGS = {
        "--kinds": {"dest": "kinds", "nargs": "+", "choices": FAULT_KINDS}
    }

    def __init__(
        self,
        kinds: tuple[str, ...] = FAULT_KINDS,
        chunk_size: int = 96,
        stage_retries: int = 3,
        wedged: bool = False,
    ) -> None:
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        self.kinds = kinds
        self.phases = [
            ("network", {"kind": kinds}),
            ("crash", {"kind": ("crash",)}),
        ]
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
        expected = {
            "/".join(path): value for path, value in source.read_subtree()
        }
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

    # -- the two quantifications -----------------------------------------------

    def dry_run(self) -> dict[str, int]:
        """Network events and observer callbacks of one clean recovery."""
        injector = NetworkFaultInjector()
        counter = AtCall()
        clock, _source, peer, fs, closer = self._build(injector, seed=0)
        try:
            self._recoverer(fs, peer, clock, counter).run().db.close()
        finally:
            closer()
        return {"network": injector.events_seen, "crash": counter.calls}

    def companions(self, max_events: int | None) -> dict:
        # Bigger pages for the wedge: its second snapshot carries a window
        # of history, and the chunk loop is already swept above.
        wedge = RecoverySweep(self.kinds, chunk_size=8192, wedged=True)
        return {"wedge": wedge.run(max_events)}

    def run_one(self, outcome: RecoveryFaultOutcome) -> list[str]:
        """A network fault at event k, or a crash at stage boundary k.

        Either way the first attempt may stop short: a network fault by
        exhausting the retries (the operator then retries), a crash by
        halting the machine (a fresh recoverer then resumes).  The staged
        files must stay invisible until the cutover commit, and the
        second attempt must finish the job.
        """
        if outcome.mode == "crash":
            injector, seed = NetworkFaultInjector(), outcome.fault_at
            observer = AtCall(outcome.fault_at)
        else:
            injector = NetworkFaultInjector(outcome.fault_at, outcome.kind)
            seed = outcome.fault_at * 8 + len(outcome.kind)
            observer = AtCall()
        clock, source, peer, fs, closer = self._build(injector, seed)
        failures: list[str] = []
        try:
            recoverer = self._recoverer(fs, peer, clock, observer)
            try:
                replica = recoverer.run()
            except (RecoveryFailed, SimulatedCrash) as exc:
                if isinstance(exc, SimulatedCrash):
                    fs.crash()  # unsynced state is gone, like the machine
                else:
                    outcome.retried_run = True
                current = read_current_version(fs)
                # Only the DONE callback runs after the cutover commit.
                if current is not None and observer.point != "done":
                    failures.append(
                        f"an interrupted recovery left version "
                        f"{current.number} visible before the cutover commit"
                    )
                injector.disarm()
                recoverer = self._recoverer(fs, peer, clock)
                replica = recoverer.run()
            outcome.fired = observer.fired or bool(injector.injected)
            outcome.completed = True
            outcome.resumed = recoverer.report.resumed
            failures += self._judge(outcome, replica, source, recoverer.report)
            replica.db.close()
        finally:
            closer()
        return failures
