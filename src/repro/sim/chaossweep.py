"""The chaos sweep: no single point of failure, checked at every event.

The shard sweep proves the online split survives network faults and
coordinator crashes; this harness removes the last assumption — that
nodes stay up.  The world is a fully simulated *replicated* cluster:
two shards of two replicas each (primary + follower, eager propagation
on every acked write), a coordinator whose map and migration state live
on a three-store :class:`~repro.cluster.quorum.QuorumMapStore`, and a
router binding live traffic through the replica-aware failover paths.

A dry run counts the observable events of one online split (every stage
entry, durable save and per-component copy, with traffic injected at
each).  The sweep then re-runs the split once per ``(victim, event)``
pair, killing that node dead — its transport refuses every call from
that moment — at exactly that event:

* **a follower** dies: the cluster must not notice (writes hit
  primaries; the migration's follower copies are best-effort);
* **a primary** dies (donor or target, possibly mid-split): reads must
  fail over to the follower, writes must surface a typed
  :class:`~repro.cluster.errors.PrimaryFailed`, succeed after the
  coordinator promotes, and the interrupted migration must resume to
  completion against the promoted primary;
* **the coordinator** dies (with one of its three quorum stores lost
  for good): a standby coordinator built over the surviving stores must
  recover the last committed epoch and the migration's resume point
  from a quorum read and finish the split.

Every run then *revives* whatever was killed — a dead node is rebuilt
from scratch on a blank filesystem through
:class:`~repro.nameserver.recover.ReplicaRecoverer` (checkpoint
shipping + log tail from a surviving peer) — and judges the invariants:

* every update acked to a client reads back its latest acked value
  through a fresh router once the cluster has recovered — nothing
  lost, nothing doubled; while a failover is still in flight a read
  may serve an *older* acked value (a freshly promoted primary can
  ack a write its predecessor had not yet mirrored forward — the
  migration FLUSH re-copy converges it), but never a value that was
  never acked;
* a scatter ``count()`` equals the number of distinct live names;
* every component belongs to exactly one *shard*, and every replica of
  that shard holds it;
* after revival all four nodes are HEALTHY, each shard's replicas hold
  identical live state, and every node's role agrees with the map;
* the published epoch advanced past the pre-split epoch.

Run standalone (the CI job does)::

    PYTHONPATH=src python -m repro.sim.sweep chaos
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.coordinator import Coordinator
from repro.cluster.errors import MigrationFailed, PrimaryFailed
from repro.cluster.quorum import MapStore, QuorumMapStore
from repro.cluster.router import ShardRouter
from repro.cluster.shard import SHARD_INTERFACE, RemoteShard, ShardService
from repro.core import HEALTHY
from repro.nameserver.recover import ReplicaRecoverer
from repro.nameserver.replication import Replica
from repro.rpc import RetryPolicy, RpcServer
from repro.rpc.errors import TransportError
from repro.sim.clock import SimClock
from repro.sim.shardsweep import (
    MOVING_COMPONENTS,
    STABLE_COMPONENTS,
    judge_split,
    resume_split,
)
from repro.sim.sweep import AtCall, Outcome, Sweep
from repro.storage import SimFS
from repro.storage.errors import SimulatedCrash

#: the nodes the sweep kills, one per run ("coordinator" is a mode of
#: its own: the acting coordinator halts and one quorum store dies)
KILL_VICTIMS = ("s0", "s0r1", "s1", "s1r1")

#: (shard_id, replica_id) for every node in the simulated cluster
CLUSTER_NODES = (
    ("s0", "s0"),
    ("s0", "s0r1"),
    ("s1", "s1"),
    ("s1", "s1r1"),
)


class _NodeTransport:
    """Loopback to one node's RPC server that dies with the node.

    Liveness and dispatch are both resolved *per call* through the
    world, so a router's cached client keeps working across the node
    being killed (calls fail with a typed, never-delivered
    :class:`TransportError`) and later revived (calls reach the rebuilt
    server).
    """

    def __init__(self, world: "_ChaosWorld", node: str) -> None:
        self.world = world
        self.node = node

    def call(self, request: bytes) -> bytes:
        if self.node in self.world.dead:
            raise TransportError(
                f"node {self.node} is down", maybe_delivered=False
            )
        return self.world.rpcs[self.node].dispatch(request)

    def close(self) -> None:
        pass


class _PeerLink:
    """A replica's view of its in-shard peer, honouring node death.

    Resolves the peer through the world on every call, so reviving a
    node (which replaces its :class:`Replica` object) transparently
    re-points every surviving peer link.
    """

    def __init__(self, world: "_ChaosWorld", node: str) -> None:
        self.world = world
        self.node = node

    def _peer(self):
        if self.node in self.world.dead:
            raise TransportError(
                f"peer {self.node} is down", maybe_delivered=False
            )
        return self.world.replicas[self.node]

    def summary(self):
        return self._peer().summary()

    def updates_since(self, vector):
        return self._peer().updates_since(vector)

    def apply_remote(self, records):
        return self._peer().apply_remote(records)


class _KillableStore(MapStore):
    """A coordinator quorum store that can be lost for good."""

    def __init__(self, fs) -> None:
        super().__init__(fs)
        self.dead = False

    def _check(self) -> None:
        if self.dead:
            raise OSError("coordinator store is down")

    def load_map(self):
        self._check()
        return super().load_map()

    def publish_map(self, shard_map) -> None:
        self._check()
        super().publish_map(shard_map)

    def load_migration(self):
        self._check()
        return super().load_migration()

    def save_migration(self, state) -> None:
        self._check()
        super().save_migration(state)

    def clear_migration(self) -> None:
        self._check()
        super().clear_migration()


@dataclass
class ChaosOutcome(Outcome):
    """One faulted run against the invariants; ``kind`` names the victim."""

    promoted: list[str] = field(default_factory=list)
    revived: list[str] = field(default_factory=list)
    acked_updates: int = 0
    write_failovers: int = 0
    read_failovers: int = 0
    stale_reads: int = 0
    new_epoch: int = 0


class _ChaosWorld:
    """One replicated cluster: 2 shards x 2 replicas, 3 quorum stores."""

    def __init__(self, seed: int) -> None:
        self.clock = SimClock()
        self.rng = random.Random(seed)
        self.dead: set[str] = set()
        self._client_serial = 0
        self.rpcs: dict[str, RpcServer] = {}
        self.services: dict[str, ShardService] = {}
        self.replicas: dict[str, Replica] = {}

        self.store_fss = [SimFS(clock=self.clock) for _ in range(3)]
        self.stores = [_KillableStore(fs) for fs in self.store_fss]
        self.coordinator = self._coordinator()
        shard_map = self.coordinator.bootstrap(
            {"s0": [("s0", "sim:s0"), ("s0r1", "sim:s0r1")]}
        )
        for shard_id, replica_id in CLUSTER_NODES:
            self._build_node(shard_id, replica_id, shard_map)
        self._wire_peers()
        self.coordinator.add_shard(
            "s1", [("s1", "sim:s1"), ("s1r1", "sim:s1r1")]
        )

        self.router = ShardRouter(
            self.coordinator.current_map(),
            transport_factory=self._transport,
            retry=RetryPolicy(
                max_attempts=2,
                base_delay_seconds=0.001,
                max_delay_seconds=0.01,
                deadline_seconds=60.0,
            ),
            clock=self.clock,
            rng=self.rng,
        )
        #: path -> latest value acked to the client
        self.acked: dict[str, object] = {}
        #: path -> every value ever acked for it (in-flight reads may
        #: legitimately serve an *older* acked value during a failover
        #: window, but never an invented or doubled one)
        self.acked_history: dict[str, set] = {}
        self.sequence = 0
        self.write_failovers = 0
        self.stale_reads = 0
        self.promoted: list[str] = []

    # -- construction ----------------------------------------------------------

    def _coordinator(self) -> Coordinator:
        return Coordinator(
            QuorumMapStore(self.stores),
            shard_client_factory=self._shard_client,
            stage_retries=1,
        )

    def _build_node(self, shard_id: str, replica_id: str, shard_map) -> None:
        replica = Replica(
            SimFS(clock=self.clock), replica_id, clock=self.clock
        )
        self._export(shard_id, replica_id, replica, shard_map)

    def _export(self, shard_id, replica_id, replica, shard_map) -> None:
        service = ShardService(
            replica,
            shard_id,
            shard_map,
            forward_factory=self._forwarder,
            replica_id=replica_id,
            eager_propagate=True,
        )
        rpc = RpcServer()
        rpc.export(SHARD_INTERFACE, service)
        self.replicas[replica_id] = replica
        self.services[replica_id] = service
        self.rpcs[replica_id] = rpc

    def _wire_peers(self) -> None:
        for shard_id, replica_id in CLUSTER_NODES:
            for other_shard, other_id in CLUSTER_NODES:
                if other_shard == shard_id and other_id != replica_id:
                    self.replicas[replica_id].add_peer(
                        _PeerLink(self, other_id)
                    )

    def _transport(self, address: str) -> _NodeTransport:
        return _NodeTransport(self, address.split(":", 1)[1])

    def _client_options(self) -> dict:
        self._client_serial += 1
        return {
            "client_id": f"chaossweep-{self._client_serial}",
            "clock": self.clock,
            "rng": self.rng,
            "retry": RetryPolicy(
                max_attempts=2,
                base_delay_seconds=0.001,
                max_delay_seconds=0.01,
                deadline_seconds=60.0,
            ),
        }

    def _shard_client(self, shard_info) -> RemoteShard:
        return RemoteShard(
            self._transport(shard_info.address), **self._client_options()
        )

    def _forwarder(self, address: str) -> RemoteShard:
        return RemoteShard(
            self._transport(address), **self._client_options()
        )

    # -- chaos -----------------------------------------------------------------

    def kill(self, node: str) -> None:
        self.dead.add(node)

    def kill_store(self, index: int) -> None:
        self.stores[index].dead = True

    def ensure_promoted(self, node: str) -> None:
        """Promote over ``node`` if it still heads its shard's set."""
        if node not in self.dead:
            return
        shard = self.coordinator.current_map().shard_of_replica(node)
        if shard.primary.replica_id != node:
            return  # traffic already forced the promotion
        self.coordinator.promote(shard.shard_id)
        self.promoted.append(shard.shard_id)

    def revive(self, node: str) -> None:
        """Rebuild a killed node from a surviving peer, blank-disk style."""
        shard = self.coordinator.current_map().shard_of_replica(node)
        peers = [
            replica.replica_id
            for replica in shard.replica_set
            if replica.replica_id != node and replica.replica_id not in self.dead
        ]
        source = self.replicas[peers[0]]
        source.checkpoint()  # snapshot shipping needs a current checkpoint
        recoverer = ReplicaRecoverer(
            SimFS(clock=self.clock), node, [source], clock=self.clock
        )
        reborn = recoverer.run()
        self._export(
            shard.shard_id, node, reborn, self.coordinator.current_map()
        )
        for replica in shard.replica_set:
            if replica.replica_id != node:
                reborn.add_peer(_PeerLink(self, replica.replica_id))
        self.dead.discard(node)

    # -- the live workload ------------------------------------------------------

    def seed(self) -> None:
        for component in MOVING_COMPONENTS + STABLE_COMPONENTS:
            self._bind(component)

    def traffic(self, _point: str) -> None:
        """Two writes and one verified read at every observable point.

        Writes that hit a dead primary exercise the full failover path:
        the router surfaces a typed :class:`PrimaryFailed`, the sweep
        (standing in for the supervisor's failover check) asks the
        coordinator to promote, and the retry must succeed.
        """
        cycle = MOVING_COMPONENTS + STABLE_COMPONENTS
        self._bind(cycle[self.sequence % len(cycle)])
        self._bind(MOVING_COMPONENTS[self.sequence % len(MOVING_COMPONENTS)])
        if self.acked:
            path = self.rng.choice(sorted(self.acked))
            got = self.router.lookup(path)
            if got != self.acked[path]:
                # During a failover window a freshly promoted primary may
                # serve a value that an older primary acked but had not yet
                # mirrored forward; the migration FLUSH re-copy heals it and
                # the post-recovery judge demands the latest value.  What a
                # read must NEVER do — even mid-failover — is return a value
                # that was never acked for this path.
                if got not in self.acked_history.get(path, set()):
                    raise AssertionError(
                        f"read of acked {path!r} returned {got!r}, which was "
                        f"never acked (latest acked value was "
                        f"{self.acked[path]!r})"
                    )
                self.stale_reads += 1

    def _bind(self, component: str) -> None:
        self.sequence += 1
        path = f"{component}/addr"
        value = self.sequence
        try:
            self.router.bind(path, value)
        except PrimaryFailed as exc:
            shard = self.coordinator.current_map().shard(exc.shard_id)
            if shard.primary.replica_id in self.dead:
                self.coordinator.promote(shard.shard_id)
                self.promoted.append(shard.shard_id)
            self.router.bind(path, value)
            self.write_failovers += 1
        self.acked[path] = value
        self.acked_history.setdefault(path, set()).add(value)

    # -- judgement --------------------------------------------------------------

    def judge(self, outcome: ChaosOutcome, initial_epoch: int) -> list[str]:
        failures = judge_split(self, outcome, initial_epoch, self._transport)
        outcome.write_failovers = self.write_failovers
        outcome.read_failovers = self.router.read_failovers
        outcome.stale_reads = self.stale_reads
        outcome.promoted = list(self.promoted)
        if self.dead:
            failures.append(f"nodes still dead: {sorted(self.dead)}")
        return failures + self._judge_replicas(self.coordinator.current_map())

    def _judge_replicas(self, current) -> list[str]:
        """Replicas of a shard: healthy, consistent, roles match the map."""
        failures: list[str] = []
        for shard in current.shards:
            entries_by_replica = {}
            for replica in shard.replica_set:
                node = self.replicas[replica.replica_id]
                if node.db.health != HEALTHY:
                    failures.append(
                        f"{replica.replica_id} is {node.db.health}, "
                        f"expected {HEALTHY}"
                    )
                service = self.services[replica.replica_id]
                want_role = shard.role_of(replica.replica_id)
                if service.role() != want_role:
                    failures.append(
                        f"{replica.replica_id} serves as {service.role()}, "
                        f"map epoch {current.epoch} says {want_role}"
                    )
                entries_by_replica[replica.replica_id] = {
                    "/".join(path): value
                    for path, value in node.read_subtree()
                }
            primary_id = shard.primary.replica_id
            truth = entries_by_replica[primary_id]
            for replica_id, entries in entries_by_replica.items():
                if entries != truth:
                    missing = sorted(set(truth) - set(entries))
                    extra = sorted(set(entries) - set(truth))
                    failures.append(
                        f"{replica_id} diverges from primary {primary_id}: "
                        f"missing {missing[:3]!r}, extra {extra[:3]!r}"
                    )
        return failures

    def close(self) -> None:
        self.router.close()


class ChaosSweep(Sweep):
    """Kills every node (and the coordinator) at every split event."""

    outcome_type = ChaosOutcome
    TOTALS = (
        "acked_updates",
        "promoted",
        "write_failovers",
        "read_failovers",
        "stale_reads",
        "revived",
    )
    phases = [("kill", {"kind": (victim,)}) for victim in KILL_VICTIMS] + [
        ("coordinator", {"kind": ("coordinator",)})
    ]

    def dry_run(self) -> dict[str, int]:
        """Observer callbacks one clean split makes."""
        world = _ChaosWorld(seed=0)
        counter = AtCall(each=world.traffic)
        try:
            world.seed()
            world.coordinator.split("s0", "s1", stage_observer=counter)
        finally:
            world.close()
        return {"kill": counter.calls, "coordinator": counter.calls}

    def run_one(self, outcome: ChaosOutcome) -> list[str]:
        """Kill node ``outcome.kind`` at event k — or halt the coordinator
        there, losing one quorum store for good — then revive and judge."""
        victim = outcome.kind
        if outcome.mode == "kill":
            world = _ChaosWorld(seed=outcome.fault_at * 16 + len(victim))
            observer = AtCall(
                outcome.fault_at,
                each=world.traffic,
                action=lambda: world.kill(victim),
            )
        else:
            world = _ChaosWorld(seed=outcome.fault_at * 16 + 7)
            observer = AtCall(outcome.fault_at, each=world.traffic)
        try:
            world.seed()
            initial_epoch = world.coordinator.current_map().epoch
            try:
                world.coordinator.split("s0", "s1", stage_observer=observer)
            except MigrationFailed:
                # The dead node wedged a stage: promote over it (the
                # supervisor's failover check) and resume — the
                # persisted state plus the recomputed map must finish.
                outcome.retried_run = True
                world.ensure_promoted(victim)
                report = world.coordinator.resume_migration(
                    stage_observer=world.traffic
                )
                outcome.resumed = bool(report is None or report.resumed)
            except SimulatedCrash:
                # The coordinator's machine halts taking one quorum store
                # with it for good; the survivors lose unsynced state, and
                # a standby rebuilds from a quorum of them.
                world.kill_store(0)
                for fs in world.store_fss[1:]:
                    fs.crash()
                resume_split(world, outcome)
            outcome.fired = observer.fired
            outcome.completed = True
            for node in sorted(world.dead):
                world.revive(node)
                outcome.revived.append(node)
            # One more round of traffic: the healed cluster must serve.
            world.traffic("post_recovery")
            return world.judge(outcome, initial_epoch)
        finally:
            world.close()
