"""The io-fault sweep: runtime media faults checked at every disk event.

The crash sweep (:mod:`repro.sim.crashtest`) quantifies over machine
halts; the network sweep (:mod:`repro.sim.netsweep`) over lost messages.
This harness closes the triangle: it quantifies over *runtime media
faults* — the disk starts refusing operations while the server keeps
running — and model-checks the database's health state machine:

1. run a scripted workload (updates interleaved with a checkpoint) once
   with no fault scheduled and count the file-system data operations it
   performs (N);
2. for every event k in 1..N and every fault kind, run the workload from
   scratch over a :class:`~repro.storage.failures.FaultyFS` with the
   fault scheduled at event k, on a fresh
   :class:`~repro.storage.simfs.SimFS`;
3. model-check the outcome:

   * **transient** faults (the device errors once, then recovers) must
     be absorbed: every update acked, the database still HEALTHY, the
     final state equal to the model's;
   * **persistent** faults (hard error or disk-full from event k
     onwards) must degrade the database to DEGRADED_READ_ONLY: further
     updates are refused with ``DatabaseDegraded``, enquiries are still
     served from virtual memory, and the in-memory state matches the
     model for the acked prefix;
   * in *every* run the machine is then halted, the primary directory is
     checked with fsck — repaired with
     :func:`~repro.tools.fsck.repair_directory` if not clean — and
     restarted: the recovered state must contain every acknowledged
     update (no acked update is ever lost).  The primary alone is the
     way back; the database keeps no second local copy;
   * every degraded run must also leave a *black box*: the shared
     flight recorder (fed by the injector, the health monitor and the
     commit pipeline), dumped from the live ring, must contain the
     injected fault, the storage fault and the degradation transition,
     and must render through :mod:`repro.tools.postmortem` without
     error.

A capacity-budget scenario (:func:`run_capacity`) covers the organic
disk-full path as well: a :class:`SimFS` with a finite page budget fills
up mid-workload, and the same invariants must hold.

Two replica-level scenarios extend the claim from "the node survives"
to "the *replica set* heals the node":

* :class:`ReplicaRepairSweep` re-runs the persistent-fault quantification
  against a name server replica with a healthy peer, and requires every
  degraded run to end with the faulted node back in HEALTHY via the
  staged :class:`~repro.nameserver.recover.ReplicaRecoverer` — peer
  snapshot shipped, log tail caught up, state equal to the peer's;
* :func:`run_divergence` seeds a silent same-stamp divergence between
  two HEALTHY replicas and requires the anti-entropy tree comparison to
  detect and repair it within two sync rounds, shipping only the
  diverged leaves rather than a full snapshot.

Run standalone (the CI job does; the capacity, repair and divergence
scenarios run after the sweep)::

    PYTHONPATH=src python -m repro.sim.sweep io
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import (
    CheckpointFailed,
    Database,
    DatabaseDegraded,
    DEGRADED_READ_ONLY,
    HEALTHY,
    OperationRegistry,
)
from repro.nameserver.recover import ReplicaRecoverer
from repro.nameserver.replication import Replica
from repro.nameserver.tree import find_node, parse_path
from repro.obs.flight import FlightRecorder, load_blackbox
from repro.sim.clock import SimClock
from repro.sim.sweep import Outcome, Sweep
from repro.storage import FaultyFS, MediaFaultInjector, SimFS
from repro.tools.fsck import fsck_directory, repair_directory
from repro.tools.postmortem import build_timeline, render_timeline, summarize

#: A scripted step: ("put", key, value) | ("incr", key, by) | ("checkpoint",)
Step = tuple

#: Default workload: updates on both sides of a checkpoint, with
#: non-idempotent increments so a lost or doubled replay cannot hide.
DEFAULT_STEPS: list[Step] = [
    ("put", "alpha", 1),
    ("incr", "alpha", 2),
    ("put", "beta", 10),
    ("checkpoint",),
    ("incr", "beta", 5),
    ("put", "alpha", 100),
    ("incr", "alpha", 7),
]

#: fault kind → (persistent, injector error string)
KINDS = {
    "transient": (False, "hard"),
    "persistent": (True, "hard"),
    "disk_full": (True, "disk_full"),
}

SWEEP_DURABILITIES = ("group", "immediate")

#: flight-event kinds every degraded run's black box must contain (the
#: first only when a fault was injected, not for an organic disk-full)
REQUIRED_BLACKBOX_KINDS = (
    "fault_injected",
    "storage_fault",
    "health_transition",
)


def sweep_operations() -> OperationRegistry:
    """The tiny key-value schema the sweep drives."""
    ops = OperationRegistry()

    @ops.operation("put")
    def op_put(root, key, value):
        root[key] = value

    @ops.operation("incr")
    def op_incr(root, key, by):
        root[key] = root.get(key, 0) + by
        return root[key]

    return ops


def model_states(steps: list[Step]) -> list[dict]:
    """State after each acked-update prefix (checkpoints change nothing)."""
    states: list[dict] = [{}]
    for step in steps:
        op = step[0]
        if op == "checkpoint":
            continue
        state = dict(states[-1])
        if op == "put":
            state[step[1]] = step[2]
        elif op == "incr":
            state[step[1]] = state.get(step[1], 0) + step[2]
        else:
            raise ValueError(f"unknown step kind {op!r}")
        states.append(state)
    return states


def _check_kinds(kinds: tuple[str, ...]) -> None:
    unknown = set(kinds) - set(KINDS)
    if unknown:
        raise ValueError(f"unknown fault kinds: {sorted(unknown)}")


@dataclass
class IoFaultOutcome(Outcome):
    """What one faulted run looked like against the model."""

    durability: str = ""
    acked: int = 0
    degraded: bool = False
    health: str = ""
    faults_injected: int = 0
    repaired: bool = False


class IoFaultSweep(Sweep):
    """Sweeps a scripted workload over every runtime disk-fault point."""

    outcome_type = IoFaultOutcome
    TOTALS = ("degraded", "repaired")
    FLAGS = {
        "--kinds": {"dest": "kinds", "nargs": "+", "choices": tuple(KINDS)},
        "--durability": {
            "dest": "durabilities",
            "nargs": "+",
            "choices": SWEEP_DURABILITIES,
        },
    }

    def __init__(
        self,
        steps: list[Step] | None = None,
        kinds: tuple[str, ...] = ("transient", "persistent", "disk_full"),
        durabilities: tuple[str, ...] = SWEEP_DURABILITIES,
        fault_retries: int = 2,
    ) -> None:
        _check_kinds(kinds)
        self.steps = list(DEFAULT_STEPS if steps is None else steps)
        self.durabilities = durabilities
        self.phases = [("io", {"kind": kinds, "durability": durabilities})]
        self.fault_retries = fault_retries
        self._models = model_states(self.steps)

    # -- execution ------------------------------------------------------------

    def _build(
        self,
        injector: MediaFaultInjector,
        durability: str,
        capacity_pages: int | None = None,
    ):
        clock = SimClock()
        prime = SimFS(clock=clock, capacity_pages=capacity_pages)
        # One recorder shared by the injector and the database: the
        # injected fault and its consequences land in one timeline.
        flight = FlightRecorder(clock=clock)
        injector.flight = flight
        db = Database(
            FaultyFS(prime, injector),
            initial=dict,
            operations=sweep_operations(),
            clock=clock,
            durability=durability,
            fault_retries=self.fault_retries,
            flight=flight,
        )
        # The database opened cleanly; only *runtime* faults from here on.
        injector.arm()
        return prime, db

    def _drive(self, db: Database) -> tuple[int, bool]:
        """Run the script; returns (updates acked, hit DatabaseDegraded)."""
        acked = 0
        for step in self.steps:
            if step[0] == "checkpoint":
                try:
                    db.checkpoint()
                except CheckpointFailed:
                    # Clean abort: the old version stays current and the
                    # retry is scheduled.  Not a degradation.
                    continue
                except DatabaseDegraded:
                    return acked, True
            else:
                try:
                    db.update(step[0], *step[1:])
                except DatabaseDegraded:
                    return acked, True
                acked += 1
        return acked, False

    def dry_run(self) -> dict[str, int]:
        """Total counted disk operations the script generates."""
        injector = MediaFaultInjector()
        _prime, db = self._build(injector, self.durabilities[0])
        self._drive(db)
        db.close()
        return {"io": injector.events_seen}

    def companions(self, max_events: int | None) -> dict:
        return {
            **{f"capacity[{d}]": run_capacity(d) for d in self.durabilities},
            "repair": ReplicaRepairSweep().run(max_events),
            "divergence": run_divergence(),
        }

    def run_one(self, outcome: IoFaultOutcome) -> list[str]:
        persistent, error = KINDS[outcome.kind]
        injector = MediaFaultInjector(
            fault_at_event=outcome.fault_at, persistent=persistent, error=error
        )
        prime, db = self._build(injector, outcome.durability)
        outcome.acked, outcome.degraded = self._drive(db)
        outcome.completed = not outcome.degraded
        outcome.faults_injected = len(injector.injected)
        outcome.fired = outcome.faults_injected > 0
        allowed = self._allowed_states(outcome.acked)
        failures = self._judge_live(outcome, db, allowed)
        injector.disarm()  # the device is replaced before the restart
        failures += self._judge_restart(outcome, prime, allowed)
        outcome.health = db.health
        return failures

    def _allowed_states(self, acked: int) -> list[dict]:
        """The in-memory states consistent with ``acked`` acknowledgements.

        Group mode applies an update to virtual memory *before* its
        commit barrier, so at most one applied-but-unacked update may be
        visible when the commit fsync degrades the database.
        """
        allowed = [self._models[acked]]
        if acked + 1 < len(self._models):
            allowed.append(self._models[acked + 1])
        return allowed

    def _judge_live(
        self,
        outcome: IoFaultOutcome,
        db: Database,
        allowed: list[dict],
    ) -> list[str]:
        failures: list[str] = []
        try:
            memory = db.enquire(lambda root: dict(root))
        except Exception as exc:  # noqa: BLE001
            return [f"enquiry refused after fault: {exc!r}"]
        if memory not in allowed:
            failures.append(
                f"in-memory state {memory!r} matches no acked prefix "
                f"(allowed: {allowed!r})"
            )
        if outcome.kind == "transient":
            if outcome.degraded or db.health != HEALTHY:
                failures.append(
                    f"a single transient fault left health={db.health!r} "
                    f"instead of riding it out with a retry"
                )
            if memory != self._models[-1]:
                failures.append(
                    f"transient run finished with {memory!r}, model says "
                    f"{self._models[-1]!r}"
                )
            return failures
        # Persistent kinds (hard error / disk full) must degrade.
        if not outcome.degraded:
            return failures + [
                "persistent fault was injected but the workload completed "
                "without degrading"
            ]
        if db.health != DEGRADED_READ_ONLY:
            failures.append(
                f"degraded run reports health={db.health!r}, expected "
                f"{DEGRADED_READ_ONLY!r}"
            )
        try:
            db.update("put", "probe", -1)
            failures.append("degraded database accepted an update")
        except DatabaseDegraded:
            pass
        return failures + self._judge_blackbox(outcome, db)

    def _judge_blackbox(
        self, outcome: IoFaultOutcome, db: Database
    ) -> list[str]:
        """A degraded run must leave a renderable, causal black box.

        The dump is taken from the live ring, as the ``flight_events``
        management RPC serves it: a degraded node writes nothing to its
        failing device.
        """
        failures: list[str] = []
        try:
            dump = load_blackbox(db.flight.dump_json())
        except Exception as exc:  # noqa: BLE001
            return [f"black box dump invalid: {exc!r}"]
        kinds = {event.get("kind") for event in dump["events"]}
        for kind in REQUIRED_BLACKBOX_KINDS:
            if kind not in kinds and (
                outcome.faults_injected or kind != "fault_injected"
            ):
                failures.append(
                    f"dumped black box lacks the {kind!r} event "
                    f"(kinds: {sorted(kinds)})"
                )
        transitions = [
            e for e in dump["events"]
            if e.get("kind") == "health_transition"
            and (e.get("fields") or {}).get("to_state") == DEGRADED_READ_ONLY
        ]
        if not transitions:
            failures.append(
                "dumped black box has no transition into "
                "degraded_read_only"
            )
        try:
            rendered = render_timeline(build_timeline(dump))
            summary = summarize(dump)
            if not rendered or not summary:
                failures.append("postmortem rendered an empty timeline")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"postmortem failed to render the dump: {exc!r}")
        return failures

    def _judge_restart(
        self, outcome: IoFaultOutcome, prime: SimFS, allowed: list[dict]
    ) -> list[str]:
        """Halt, fsck (repairing if needed), restart: no acked update lost."""
        failures: list[str] = []
        prime.crash()
        report = fsck_directory(prime)
        if report.exit_status() != 0:
            repair_directory(prime)
            outcome.repaired = True
            report = fsck_directory(prime)
            if report.exit_status() != 0:
                failures.append(
                    f"directory not clean after fsck repair: "
                    f"{report.errors + report.warnings}"
                )
        try:
            restarted = Database(
                prime, initial=dict, operations=sweep_operations()
            )
            recovered = restarted.enquire(lambda root: dict(root))
        except Exception as exc:  # noqa: BLE001
            return failures + [f"restart after repair failed: {exc!r}"]
        if outcome.kind == "transient":
            if recovered != self._models[-1]:
                failures.append(
                    f"transient run recovered {recovered!r}, model says "
                    f"{self._models[-1]!r}"
                )
        elif recovered not in allowed:
            failures.append(
                f"restart recovered {recovered!r}, which loses or invents "
                f"an acked update (acked={outcome.acked}, allowed: "
                f"{allowed!r})"
            )
        return failures


def run_capacity(
    durability: str = "group",
    capacity_pages: int = 40,
    value_bytes: int = 1500,
) -> list[str]:
    """The organic disk-full scenario: a finite page budget fills up.

    Drives puts into a :class:`SimFS` with ``capacity_pages`` until the
    allocator refuses, then judges the run exactly as the sweep judges an
    injected disk-full fault: degraded read-only, enquiries served, black
    box renderable, repaired directory restarts with no acked update
    lost.  Returns a list of invariant violations (empty
    = clean).
    """
    steps = [("put", f"k{i}", "x" * value_bytes) for i in range(200)]
    sweep = IoFaultSweep(steps, fault_retries=1)
    prime, db = sweep._build(
        MediaFaultInjector(), durability, capacity_pages
    )
    outcome = IoFaultOutcome(0, "disk_full", "capacity", durability=durability)
    outcome.acked, outcome.degraded = sweep._drive(db)
    if not outcome.degraded:
        return [
            f"{capacity_pages}-page budget never filled after {len(steps)} "
            f"updates"
        ]
    allowed = sweep._allowed_states(outcome.acked)
    return sweep._judge_live(outcome, db, allowed) + (
        sweep._judge_restart(outcome, prime, allowed)
    )


# -- replica repair: every persistent fault healed via a peer -------------------

#: The repair workload: binds on both sides of a *peer* checkpoint, so
#: the shipped snapshot and the log tail past it both carry state, and a
#: re-bound name makes a doubled or dropped replay visible.
REPAIR_STEPS: list[Step] = [
    ("bind", "svc/web/alpha", 1),
    ("bind", "svc/web/beta", 2),
    ("peer_checkpoint",),
    ("bind", "svc/db/gamma", 3),
    ("bind", "svc/web/alpha", 4),
]

#: only the kinds that must degrade take the repair path
REPAIR_KINDS = ("persistent", "disk_full")


@dataclass
class RepairOutcome(Outcome):
    """One faulted-then-repaired run against the replica-set model."""

    acked: int = 0
    degraded: bool = False
    recovered: bool = False
    bytes_shipped: int = 0
    entries_replayed: int = 0


class ReplicaRepairSweep(Sweep):
    """The io-fault sweep lifted to a replica set that heals itself.

    The primary runs over a :class:`FaultyFS`; a healthy peer replica
    receives every acknowledged update by eager propagation.  For every
    disk event k and every persistent fault kind, the primary must
    degrade, and the staged :class:`ReplicaRecoverer` must then take it
    from DEGRADED_READ_ONLY back to HEALTHY with exactly the peer's
    state: the peer's checkpoint shipped in chunks, the history records
    past its version vector caught up as a log tail, the old damaged
    files gone after cutover.
    """

    outcome_type = RepairOutcome
    TOTALS = ("recovered",)

    def __init__(
        self,
        steps: list[Step] | None = None,
        kinds: tuple[str, ...] = REPAIR_KINDS,
        fault_retries: int = 2,
    ) -> None:
        _check_kinds(kinds)
        if not all(KINDS[kind][0] for kind in kinds):
            raise ValueError("the repair sweep only sweeps persistent kinds")
        self.steps = list(REPAIR_STEPS if steps is None else steps)
        self.phases = [("io", {"kind": kinds})]
        self.fault_retries = fault_retries

    def _build(self, injector: MediaFaultInjector):
        clock = SimClock()
        prime = SimFS(clock=clock)
        flight = FlightRecorder(clock=clock)
        injector.flight = flight
        primary = Replica(
            FaultyFS(prime, injector),
            "prime",
            clock=clock,
            durability="immediate",
            fault_retries=self.fault_retries,
            flight=flight,
        )
        peer = Replica(
            SimFS(clock=clock), "buddy", clock=clock, durability="immediate"
        )
        primary.add_peer(peer)
        # Both databases opened cleanly; only runtime faults from here on,
        # and only the primary's disk events are counted.
        injector.arm()
        return prime, primary, peer, flight, clock

    def _drive(self, primary: Replica, peer: Replica):
        """Run the script; returns (acked bindings, records, ckpt records,
        hit DatabaseDegraded).

        Every acknowledged bind is propagated to the peer before the next
        step, so the peer always holds exactly the acked prefix — the
        ground truth recovery must reproduce.
        """
        acked: dict[str, object] = {}
        records = 0
        checkpointed_records: int | None = None
        for step in self.steps:
            if step[0] == "peer_checkpoint":
                peer.checkpoint()
                checkpointed_records = records
                continue
            try:
                primary.bind(step[1], step[2])
            except DatabaseDegraded:
                return acked, records, checkpointed_records, True
            acked[step[1]] = step[2]
            records += 1
            primary.propagate()
        return acked, records, checkpointed_records, False

    def dry_run(self) -> dict[str, int]:
        """Counted disk operations on the primary's device."""
        injector = MediaFaultInjector()
        _prime, primary, peer, _flight, _clock = self._build(injector)
        self._drive(primary, peer)
        primary.db.close()
        return {"io": injector.events_seen}

    def run_one(self, outcome: RepairOutcome) -> list[str]:
        persistent, error = KINDS[outcome.kind]
        injector = MediaFaultInjector(
            fault_at_event=outcome.fault_at, persistent=persistent, error=error
        )
        prime, primary, peer, flight, clock = self._build(injector)
        acked, records, ckpt_records, outcome.degraded = self._drive(
            primary, peer
        )
        outcome.acked = len(acked)
        outcome.fired = bool(injector.injected)
        if not outcome.degraded:
            return [
                "persistent fault was injected but the primary completed "
                "without degrading"
            ]
        monitor = primary.db.health_monitor
        injector.disarm()  # the device is replaced before the repair
        try:
            primary.db.close()
        except Exception:  # noqa: BLE001 - a degraded close may refuse
            pass
        prime.crash()
        recoverer = ReplicaRecoverer(
            prime,
            "prime",
            [peer],
            clock=clock,
            flight=flight,
            health_monitor=monitor,
        )
        replica = recoverer.run()
        report = recoverer.report
        outcome.recovered = True
        outcome.bytes_shipped = report.bytes_shipped
        outcome.entries_replayed = report.entries_replayed
        outcome.resumed = report.resumed
        return self._judge(replica, peer, monitor, flight, report, acked,
                           records - (ckpt_records or 0))

    def _judge(
        self,
        replica: Replica,
        peer: Replica,
        monitor,
        flight: FlightRecorder,
        report,
        acked: dict,
        expected_tail: int,
    ) -> list[str]:
        failures: list[str] = []
        if replica.db.health != HEALTHY:
            failures.append(
                f"recovered replica reports health={replica.db.health!r}"
            )
        if monitor.state != HEALTHY:
            failures.append(
                f"the degraded node's monitor never took the "
                f"RECOVERING -> HEALTHY edge (state={monitor.state!r})"
            )
        recovered = {
            "/".join(path): value for path, value in replica.read_subtree()
        }
        expected = {
            "/".join(parse_path(path)): value for path, value in acked.items()
        }
        if recovered != expected:
            failures.append(
                f"recovered state {recovered!r} != acked prefix "
                f"{expected!r} (an acknowledged update was lost or "
                f"invented across the repair)"
            )
        peer_state = {
            "/".join(path): value for path, value in peer.read_subtree()
        }
        if recovered != peer_state:
            failures.append(
                f"recovered state {recovered!r} != peer state "
                f"{peer_state!r}"
            )
        for stage in ("planning", "snapshot", "log_tail", "cutover", "done"):
            if stage not in report.stages:
                failures.append(f"recovery skipped the {stage!r} stage")
        if report.bytes_shipped <= 0:
            failures.append("no checkpoint bytes were shipped from the peer")
        if report.entries_replayed != expected_tail:
            failures.append(
                f"{report.entries_replayed} history records caught up, "
                f"expected {expected_tail} (records past the peer's "
                f"checkpoint vector)"
            )
        if "recovery_complete" not in flight.kinds():
            failures.append(
                "the flight recorder never saw recovery_complete"
            )
        return failures


def run_divergence(max_rounds: int = 2) -> list[str]:
    """Silent divergence between HEALTHY replicas, healed by anti-entropy.

    Seeds two converged replicas, then corrupts one leaf on one of them
    *without* touching its replication stamp — the failure mode version
    vectors cannot see.  The Merkle comparison in
    :meth:`~repro.nameserver.replication.Replica.sync_with` must detect
    the divergence and repair it within ``max_rounds`` calls, shipping
    only the diverged leaves (never a full snapshot: the recoverer plays
    no part here).  Returns a list of invariant violations (empty =
    clean).
    """
    failures: list[str] = []
    clock = SimClock()
    left = Replica(SimFS(clock=clock), "left", clock=clock)
    right = Replica(SimFS(clock=clock), "right", clock=clock)
    left.add_peer(right)
    seeds = [
        ("svc/web/alpha", 1),
        ("svc/web/beta", 2),
        ("svc/db/gamma", 3),
        ("cfg/ttl", 60),
        ("cfg/quota", 5),
    ]
    for path, value in seeds:
        left.bind(path, value)
    left.propagate()
    if left.summary() != right.summary():
        return ["seeding did not converge the pair"]

    target = parse_path("svc/web/beta")

    def corrupt(root) -> None:
        # The silent fault: a new value under the *old* stamp, as a
        # replay bug or memory corruption would leave it.
        find_node(root["tree"], target).leaf.value = -999

    right.db.enquire(corrupt)
    if left.tree_digest() == right.tree_digest():
        return ["the seeded corruption did not change the tree digest"]

    registry = left.db.registry
    mismatches = registry.get("replication_tree_mismatches_total")
    shipped = registry.get("replication_repair_leaves_shipped_total")
    rounds_used = 0
    for rounds_used in range(1, max_rounds + 1):
        left.sync_with(right)
        if left.tree_digest() == right.tree_digest():
            break
    detected = mismatches.value
    if detected < 1:
        failures.append("the divergence was never detected")
    if left.tree_digest() != right.tree_digest():
        failures.append(
            f"replicas still diverged after {rounds_used} sync rounds"
        )
    if sorted(left.read_subtree()) != sorted(right.read_subtree()):
        failures.append("tree digests agree but the entries differ")
    if shipped.value == 0:
        failures.append("convergence happened without shipping any repair")
    elif shipped.value >= len(seeds):
        failures.append(
            f"repair shipped {shipped.value:g} leaves for 1 diverged binding "
            f"of {len(seeds)} — that is a full transfer, not a targeted "
            f"repair"
        )
    left.sync_with(right)
    if mismatches.value != detected:
        failures.append("a repaired pair still reports tree mismatches")
    return failures
