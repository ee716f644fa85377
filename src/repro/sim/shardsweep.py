"""The shard sweep: online migration checked at every fault point.

The recovery sweep proves a *replica* can be rebuilt through faults;
this harness proves the cluster's online shard split — the staged
:class:`~repro.cluster.migrate.ShardMigration` — keeps its promises
while the network fails and the coordinator crashes, **with client
traffic still flowing**.  The world is fully simulated: a donor shard
owning the whole hash space, an empty target shard, a coordinator on its
own :class:`~repro.storage.simfs.SimFS`, and a stream of client updates
injected at every observable point of the migration.  Two
quantifications:

1. **Network faults.**  The migration is a multi-RPC conversation
   (coordinator → donor/target) plus the donor's mirror forwards.  All
   of those transports share one
   :class:`~repro.rpc.faults.NetworkFaultInjector`.  A dry run counts
   the events; the sweep then re-runs the whole migration with a
   ``drop`` / ``sever`` / ``delay`` scheduled at each event 1..N.  The
   client retries plus the migration's stage retries must absorb the
   fault — and if a run does give up with
   :class:`~repro.cluster.errors.MigrationFailed`, the persisted state
   must let a second run (the operator retry) finish the job.

2. **Coordinator crashes.**  The migration calls its ``stage_observer``
   at every stage entry, after every durable save and per-component
   copy.  The sweep crashes there (raises out of the observer, drops
   the coordinator's unsynced file state), builds a *fresh* coordinator
   over the surviving directory, and resumes.

After every faulted run the same invariants are judged:

* every update acked to a client is readable through a fresh router and
  carries its **latest** acked value — nothing lost, nothing doubled;
* every component has **exactly one owner**: the owning shard answers,
  every other shard raises a typed ``WrongShard``;
* a scatter ``count()`` equals the number of distinct live names — no
  double-counting from a half-purged donor;
* the published map's epoch advanced past the pre-split epoch.

Run standalone (the CI job does)::

    PYTHONPATH=src python -m repro.sim.sweep shard
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cluster.coordinator import Coordinator
from repro.cluster.errors import MigrationFailed, WrongShard
from repro.cluster.router import ShardRouter
from repro.cluster.shard import SHARD_INTERFACE, RemoteShard, ShardService
from repro.core.sharding import HASH_SPACE, default_hash
from repro.nameserver.server import NameServer
from repro.rpc import (
    FaultyTransport,
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

#: the half of the hash space a full-space donor gives up in a split
MOVE_BOUNDARY = HASH_SPACE // 2


def _partition_components(prefix: str, wanted: int, moving: bool) -> list[str]:
    """Deterministic component names hashing into the chosen half."""
    names: list[str] = []
    index = 0
    while len(names) < wanted:
        candidate = f"{prefix}{index:03d}"
        in_upper = default_hash(candidate) >= MOVE_BOUNDARY
        if in_upper == moving:
            names.append(candidate)
        index += 1
    return names


#: seeded before the split: four moving components, two staying put
MOVING_COMPONENTS = _partition_components("svc", 4, moving=True)
STABLE_COMPONENTS = _partition_components("cfg", 2, moving=False)


@dataclass
class ShardFaultOutcome(Outcome):
    """One faulted migration run against the invariants."""

    acked_updates: int = 0
    forwarded: int = 0
    new_epoch: int = 0


def judge_split(
    world, outcome: Outcome, initial_epoch: int, transport_factory
) -> list[str]:
    """The invariants every split must keep, whatever the cluster.

    ``world`` carries ``coordinator``, ``services``, ``acked`` (path ->
    latest acked value) and ``sequence`` (updates acked); reads go
    through a fresh router over ``transport_factory``.
    """
    failures: list[str] = []
    current = world.coordinator.current_map()
    outcome.new_epoch = current.epoch
    outcome.acked_updates = world.sequence
    if current.epoch <= initial_epoch:
        failures.append(
            f"epoch never advanced past {initial_epoch} "
            f"(still {current.epoch})"
        )

    fresh = ShardRouter(current, transport_factory=transport_factory)
    try:
        for path, want in world.acked.items():
            try:
                got = fresh.lookup(path)
            except Exception as exc:  # noqa: BLE001 - any escape is a finding
                failures.append(f"acked update {path!r} unreadable: {exc!r}")
                continue
            if got != want:
                failures.append(
                    f"acked update {path!r} reads {got!r}, latest "
                    f"acked value was {want!r} (lost or doubled)"
                )
        total = fresh.count()
        if total != len(world.acked):
            failures.append(
                f"scatter count {total} != {len(world.acked)} distinct "
                f"live names (double-count or loss across shards)"
            )
    finally:
        fresh.close()

    for component in MOVING_COMPONENTS + STABLE_COMPONENTS:
        owners: set[str] = set()
        for service in world.services.values():
            try:
                present = service.exists((component, "addr"))
            except WrongShard:
                continue
            owners.add(service.shard_id)
            if not present:
                failures.append(
                    f"{service.replica_id} owns {component!r} but "
                    f"has no data for it"
                )
        if len(owners) != 1:
            failures.append(
                f"component {component!r} owned by {sorted(owners)!r}, "
                f"expected exactly one shard"
            )
    return failures


def resume_split(world, outcome: Outcome) -> None:
    """A fresh coordinator over what survived a halt finishes the split."""
    world.coordinator = world._coordinator()
    report = world.coordinator.resume_migration(stage_observer=world.traffic)
    if report is None:
        # Crashed before the first durable save: nothing to resume, the
        # operator re-issues the split.
        world.coordinator.split("s0", "s1", stage_observer=world.traffic)
    else:
        outcome.resumed = True


class _World:
    """One simulated cluster: donor s0 (owns all), empty target s1."""

    def __init__(self, injector: NetworkFaultInjector, seed: int) -> None:
        self.injector = injector
        self.clock = SimClock()
        self.rng = random.Random(seed)
        self._client_serial = 0
        self.rpcs: dict[str, RpcServer] = {}
        self.services: dict[str, ShardService] = {}

        self.coordinator_fs = SimFS(clock=self.clock)
        self.coordinator = self._coordinator()
        shard_map = self.coordinator.bootstrap({"s0": "sim:s0"})
        for shard_id in ("s0", "s1"):
            self._build_shard(shard_id, shard_map)
        self.coordinator.add_shard("s1", "sim:s1")

        self.router = ShardRouter(
            self.coordinator.current_map(),
            transport_factory=self._clean_transport,
        )
        #: path -> latest value acked to the client
        self.acked: dict[str, object] = {}
        self.sequence = 0

    # -- construction ----------------------------------------------------------

    def _coordinator(self) -> Coordinator:
        return Coordinator(
            self.coordinator_fs,
            shard_client_factory=self._faulted_shard_client,
            stage_retries=2,
        )

    def _build_shard(self, shard_id: str, shard_map) -> None:
        server = NameServer(SimFS(clock=self.clock), replica_id=shard_id)
        service = ShardService(
            server, shard_id, shard_map,
            forward_factory=self._faulted_forwarder,
        )
        rpc = RpcServer()
        rpc.export(SHARD_INTERFACE, service)
        self.services[shard_id] = service
        self.rpcs[shard_id] = rpc

    def _clean_transport(self, address: str):
        return LoopbackTransport(self.rpcs[address.split(":")[1]])

    def _faulted_transport(self, address: str):
        inner = LoopbackTransport(
            self.rpcs[address.split(":")[1]], clock=self.clock
        )
        return FaultyTransport(inner, self.injector, clock=self.clock)

    def _client_options(self) -> dict:
        self._client_serial += 1
        return {
            "client_id": f"shardsweep-{self._client_serial}",
            "clock": self.clock,
            "rng": self.rng,
            "retry": RetryPolicy(
                max_attempts=4,
                base_delay_seconds=0.005,
                max_delay_seconds=0.1,
                deadline_seconds=60.0,
            ),
        }

    def _faulted_shard_client(self, shard_info) -> RemoteShard:
        return RemoteShard(
            self._faulted_transport(shard_info.address),
            **self._client_options(),
        )

    def _faulted_forwarder(self, address: str) -> RemoteShard:
        return RemoteShard(
            self._faulted_transport(address), **self._client_options()
        )

    # -- the live workload ------------------------------------------------------

    def seed(self) -> None:
        for component in MOVING_COMPONENTS + STABLE_COMPONENTS:
            self._bind(component)

    def traffic(self, _point: str) -> None:
        """One moving-range and one stable update at every observable
        point of the migration — the sweep's 'live traffic'."""
        cycle = MOVING_COMPONENTS + STABLE_COMPONENTS
        self._bind(cycle[self.sequence % len(cycle)])
        self._bind(MOVING_COMPONENTS[self.sequence % len(MOVING_COMPONENTS)])

    def _bind(self, component: str) -> None:
        self.sequence += 1
        path = f"{component}/addr"
        self.router.bind(path, self.sequence)
        self.acked[path] = self.sequence

    # -- judgement --------------------------------------------------------------

    def judge(self, outcome: ShardFaultOutcome, initial_epoch: int) -> list[str]:
        failures = judge_split(
            self, outcome, initial_epoch, self._clean_transport
        )
        outcome.forwarded = self.services["s0"].forwarded
        moved_owner = self.coordinator.current_map().owner_of(
            MOVING_COMPONENTS[0]
        )
        if outcome.completed and moved_owner.shard_id != "s1":
            failures.append(
                f"moved range still maps to {moved_owner.shard_id!r}"
            )
        return failures

    def close(self) -> None:
        self.router.close()


class ShardSweep(Sweep):
    """Sweeps one online shard split over every fault point."""

    outcome_type = ShardFaultOutcome
    TOTALS = ("resumed",)
    FLAGS = {
        "--kinds": {"dest": "kinds", "nargs": "+", "choices": FAULT_KINDS}
    }

    def __init__(self, kinds: tuple[str, ...] = FAULT_KINDS) -> None:
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        self.phases = [
            ("network", {"kind": kinds}),
            ("crash", {"kind": ("crash",)}),
        ]

    def dry_run(self) -> dict[str, int]:
        """Network events and observer callbacks of one clean migration."""
        world = _World(NetworkFaultInjector(), seed=0)
        counter = AtCall(each=world.traffic)
        try:
            world.seed()
            world.coordinator.split("s0", "s1", stage_observer=counter)
        finally:
            world.close()
        return {"network": world.injector.events_seen, "crash": counter.calls}

    def run_one(self, outcome: ShardFaultOutcome) -> list[str]:
        """A network fault at event k, or a coordinator crash at point k.

        A network fault may exhaust the retries: the operator's next
        attempt must pick up the persisted state and finish.  A crash
        drops the coordinator's unsynced file state: a fresh coordinator
        over the surviving directory must resume.
        """
        if outcome.mode == "crash":
            world = _World(NetworkFaultInjector(), seed=outcome.fault_at)
            observer = AtCall(outcome.fault_at, each=world.traffic)
        else:
            world = _World(
                NetworkFaultInjector(outcome.fault_at, outcome.kind),
                seed=outcome.fault_at * 8 + len(outcome.kind),
            )
            observer = AtCall(each=world.traffic)
        try:
            world.seed()
            initial_epoch = world.coordinator.current_map().epoch
            try:
                world.coordinator.split("s0", "s1", stage_observer=observer)
            except MigrationFailed:
                outcome.retried_run = True
                world.injector.disarm()
                report = world.coordinator.split(
                    "s0", "s1", stage_observer=world.traffic
                )
                outcome.resumed = bool(report is None or report.resumed)
            except SimulatedCrash:
                world.coordinator_fs.crash()
                resume_split(world, outcome)
            outcome.fired = observer.fired or bool(world.injector.injected)
            outcome.completed = True
            return world.judge(outcome, initial_epoch)
        finally:
            world.close()
