"""The coordinator: owner of the shard map, health checker, split driver.

Deliberately lightweight — the coordinator holds **no data**.  Its one
durable possession is the shard map, persisted through a
:class:`~repro.cluster.quorum.MapStore` with the same
stage-then-atomically-switch idiom the database uses for versions: the
new map is written to ``shardmap.new``, fsynced, renamed over
``shardmap.json`` and the directory fsynced, so a crash leaves either the
old complete map or the new complete map, never a torn one.  Hand the
coordinator a :class:`~repro.cluster.quorum.QuorumMapStore` instead and
that durable possession is majority-replicated: a publish needs a quorum
ack, and a standby coordinator rebuilding from the surviving stores
(:meth:`Coordinator.__init__` does a quorum read) always sees the last
committed epoch and the most advanced migration stage.  Everything else
it does — health-checking replicas over the management RPC, aggregating
their metrics, driving a split migration, promoting a follower when a
primary dies — is reconstructible from that store plus the shards
themselves.

A coordinator that crashes mid-migration resumes on restart
(:meth:`Coordinator.resume_migration`): the migration's own resume point
lives on the same store.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.cluster.errors import ClusterError
from repro.cluster.migrate import (
    ShardMigration,
    _ReplicaTarget,
    pending_migration,
)
from repro.cluster.quorum import (
    SHARDMAP_FILE,
    SHARDMAP_STAGING_FILE,
    as_store,
)
from repro.cluster.router import _close_quietly
from repro.cluster.shard import RemoteShard
from repro.cluster.shardmap import ShardMap
from repro.obs.aggregate import MetricsAggregator
from repro.obs.collect import ClusterTraceCollector
from repro.obs.slo import SloMonitor
from repro.rpc import DictOf, Int, Interface, Pickled, Str

__all__ = [
    "COORDINATOR_INTERFACE",
    "Coordinator",
    "RemoteCoordinator",
    "SHARDMAP_FILE",
    "SHARDMAP_STAGING_FILE",
]


def _tcp_shard_client(shard_info) -> RemoteShard:
    from repro.rpc import TcpTransport

    host, _, port = shard_info.address.rpartition(":")
    return RemoteShard(TcpTransport(host, int(port)))


def _tcp_management(address: str):
    from repro.nameserver.management import RemoteManagement
    from repro.rpc import TcpTransport

    host, _, port = address.rpartition(":")
    return RemoteManagement(TcpTransport(host, int(port)))


class Coordinator:
    """Owns the persisted shard map and drives cluster maintenance.

    ``store`` is a :class:`~repro.cluster.quorum.MapStore`, a
    :class:`~repro.cluster.quorum.QuorumMapStore` (replicated
    coordinator state), or — the historical signature — the
    coordinator's raw :class:`~repro.storage.interface.FileSystem`,
    wrapped transparently.  A standby coordinator is just a new
    ``Coordinator`` over the same (quorum) store: the constructor's
    quorum read recovers the last committed map, and
    :meth:`resume_migration` continues any in-flight split.

    ``shard_client_factory(shard_info)`` and
    ``management_factory(address)`` are injectable for the simulation
    sweeps; production defaults dial TCP.  Both accept any object with
    an ``.address`` — a :class:`~repro.cluster.shardmap.ShardInfo` or a
    single :class:`~repro.cluster.shardmap.ReplicaInfo`.
    """

    def __init__(
        self,
        store,
        *,
        shard_client_factory: Callable[[object], object] | None = None,
        management_factory: Callable[[str], object] | None = None,
        flight=None,
        stage_retries: int = 2,
        slo_targets=None,
        trace_sample: int = 1,
    ) -> None:
        self.store = as_store(store)
        # Back-compat: single-store callers historically reached the
        # directory through ``coordinator.fs``.
        self.fs = getattr(self.store, "fs", None)
        self.shard_client_factory = shard_client_factory or _tcp_shard_client
        self.management_factory = management_factory or _tcp_management
        self.flight = flight
        self.stage_retries = stage_retries
        # The cluster-wide observability plane: every piece pulls over
        # the replicas' management RPC, so attaching it costs the shards
        # nothing until the coordinator actually polls.
        self.trace_collector = ClusterTraceCollector(
            self._trace_targets,
            self.management_factory,
            sample_1_in=trace_sample,
        )
        self.aggregator = MetricsAggregator(
            self._obs_targets, self.management_factory
        )
        self.slo = SloMonitor(targets=slo_targets, flight=flight)
        self._lock = threading.Lock()
        heal = getattr(self.store, "heal", None)
        if heal is not None:
            # Standby takeover over a quorum store: converge lagging
            # peers to the quorum's truth before acting on it.
            heal()
        self.map: ShardMap | None = self.store.load_map()

    # -- the persisted map ----------------------------------------------------

    def bootstrap(self, addresses: dict[str, str]) -> ShardMap:
        """First boot: persist epoch 1 over ``{shard_id: address}``."""
        with self._lock:
            if self.map is not None:
                raise ClusterError(
                    f"already bootstrapped at epoch {self.map.epoch}"
                )
            shard_map = ShardMap.initial(addresses)
            self._publish_locked(shard_map)
            return shard_map

    def publish(self, shard_map: ShardMap) -> None:
        """Durably commit a newer map (idempotent for <= current epoch)."""
        with self._lock:
            if self.map is not None and shard_map.epoch <= self.map.epoch:
                return
            self._publish_locked(shard_map)

    def _publish_locked(self, shard_map: ShardMap) -> None:
        # Raises QuorumLost (without updating self.map) when a quorum
        # store cannot reach a majority — the old map keeps serving.
        self.store.publish_map(shard_map)
        self.map = shard_map
        if self.flight is not None:
            self.flight.record("shardmap_published", epoch=shard_map.epoch)

    def current_map(self) -> ShardMap:
        if self.map is None:
            raise ClusterError("no shard map: cluster not bootstrapped")
        return self.map

    # -- RPC surface (exported under COORDINATOR_INTERFACE) --------------------

    def get_map(self) -> dict:
        return self.current_map().to_wire()

    def epoch(self) -> int:
        return self.current_map().epoch

    def shards(self) -> dict[str, str]:
        return {
            shard.shard_id: shard.address
            for shard in self.current_map().shards
        }

    def push_map(self) -> dict[str, int]:
        """Push the current map to every replica; {shard_id: primary epoch}.

        Convergence insurance: redirects heal clients lazily, this heals
        shards eagerly (e.g. after a shard restarted with a stale map
        file).  Every replica of every shard gets the push — followers
        best-effort — but the answer stays keyed by shard id with the
        *primary's* acked epoch, preserving the wire shape.  Unreachable
        primaries report epoch 0 and are retried by the next push.
        """
        shard_map = self.current_map()
        payload = shard_map.to_wire()
        answer: dict[str, int] = {}
        for shard in shard_map.shards:
            for replica in shard.replica_set:
                target = _ReplicaTarget(
                    shard.shard_id, replica.replica_id, replica.address
                )
                epoch = 0
                try:
                    client = self.shard_client_factory(target)
                    try:
                        epoch = client.install_shard_map(payload)
                    finally:
                        _close_quietly(client)
                except Exception:
                    epoch = 0
                if replica.replica_id == shard.primary.replica_id:
                    answer[shard.shard_id] = epoch
        return answer

    def _probe(self, address: str) -> dict:
        try:
            mgmt = self.management_factory(address)
            try:
                status = mgmt.status()
            finally:
                _close_quietly(mgmt)
            status["reachable"] = True
        except Exception as exc:
            status = {"reachable": False, "error": f"{exc}"}
        status["address"] = address
        return status

    def health(self) -> dict:
        """Per-shard management status plus the map epoch.

        Each shard entry is the *primary's* status (preserving the
        pre-replication shape) plus a ``replicas`` sub-map with every
        replica's own status and role — what ``top --cluster`` renders.
        """
        shard_map = self.current_map()
        report: dict[str, object] = {
            "epoch": shard_map.epoch,
            "shards": {},
        }
        store_status = getattr(self.store, "status", None)
        if store_status is not None:
            report["store"] = store_status()
        for shard in shard_map.shards:
            status = self._probe(shard.address)
            status["ranges"] = [list(r) for r in shard.ranges]
            replicas: dict[str, object] = {}
            for replica in shard.replica_set:
                if replica.address == shard.address:
                    probed = dict(status)
                    probed.pop("ranges", None)
                else:
                    probed = self._probe(replica.address)
                probed["role"] = shard.role_of(replica.replica_id)
                replicas[replica.replica_id] = probed
            status["replicas"] = replicas
            report["shards"][shard.shard_id] = status
        return report

    def cluster_metrics(self) -> dict:
        """Aggregated totals across reachable shards."""
        health = self.health()
        totals = {
            "epoch": health["epoch"],
            "shards": len(health["shards"]),
            "reachable": 0,
            "names": 0,
            "log_bytes": 0,
            "entries_since_checkpoint": 0,
        }
        for status in health["shards"].values():
            if not status.get("reachable"):
                continue
            totals["reachable"] += 1
            totals["names"] += int(status.get("names", 0))
            totals["log_bytes"] += int(status.get("log_bytes", 0))
            totals["entries_since_checkpoint"] += int(
                status.get("entries_since_checkpoint", 0)
            )
        return totals

    # -- the observability plane ------------------------------------------------

    def _obs_targets(self) -> list[tuple[str, str, str]]:
        """``(replica_id, shard_id, address)`` for every replica in the map.

        Empty before bootstrap — the obs plane simply has nothing to
        scrape yet, rather than erroring.
        """
        if self.map is None:
            return []
        targets = []
        for shard in self.map.shards:
            for replica in shard.replica_set:
                targets.append(
                    (replica.replica_id, shard.shard_id, replica.address)
                )
        return targets

    def _trace_targets(self) -> list[tuple[str, str]]:
        return [(rid, addr) for rid, _sid, addr in self._obs_targets()]

    def cluster_metrics_snapshot(self) -> dict:
        """One scrape sweep: per-replica snapshots plus every rollup.

        ``per_shard`` and ``cluster`` are derived from the *same*
        per-replica scrapes, so their series always equal the sum of the
        per-node data in this answer — the invariant the obs-smoke CI
        asserts.
        """
        return self.aggregator.scrape()

    def cluster_metrics_text(self) -> str:
        """Cluster + per-shard rollups in Prometheus text format."""
        return self.aggregator.prometheus_text()

    def cluster_trace_ids(self) -> list:
        """Poll every replica's span ring; the trace ids now assembled."""
        self.trace_collector.poll()
        return self.trace_collector.trace_ids()

    def cluster_trace(self, trace_id: str) -> dict:
        """Poll, then assemble one cross-node trace tree + critical path.

        An empty ``trace_id`` means "the newest trace" — handy from the
        shell right after an operation.
        """
        self.trace_collector.poll()
        wanted = trace_id
        if not wanted:
            ids = self.trace_collector.trace_ids()
            if not ids:
                return {}
            wanted = ids[-1]
        return self.trace_collector.assemble(wanted)

    def cluster_slo(self) -> dict:
        """Scrape, feed the SLO monitor one sample, return its status.

        Each call is one monitoring tick: burn rates sharpen as the
        window fills.  Alert transitions land in the coordinator's
        flight recorder (``slo_burn_alert`` / ``slo_burn_clear``).
        """
        scrape = self.aggregator.scrape()
        self.slo.observe(scrape["per_replica"])
        return self.slo.status()

    def flight_events(self) -> list:
        """The coordinator's own flight ring (promotions, epochs, SLOs)."""
        if self.flight is None:
            return []
        return self.flight.snapshot()

    def migration_status(self) -> dict:
        """The persisted state of an in-flight migration (or idle)."""
        state = pending_migration(self.store)
        if state is None:
            return {"active": False}
        return {
            "active": True,
            "stage": state["stage"],
            "donor": state["donor"],
            "target": state["target"],
            "range": [state["lo"], state["hi"]],
        }

    # -- failover ---------------------------------------------------------------

    def promote(self, shard_id: str, replica_id: str = "") -> dict:
        """Promote a follower of ``shard_id`` to primary; returns new map.

        The failover path when a primary dies: pick ``replica_id`` (or,
        when empty, the first *reachable* follower), publish an epoch+1
        map with it at the head of the replica set, and push the map so
        the survivors learn their new roles immediately.  Raises
        :class:`~repro.cluster.errors.ClusterError` when the shard has
        no reachable follower — the shard stays down until one returns.

        Returns the published map's wire form (callable over RPC).
        """
        with self._lock:
            shard_map = self.current_map()
            shard = shard_map.shard(shard_id)
            if replica_id:
                candidates = [shard.replica(replica_id)]
            else:
                candidates = list(shard.followers)
            if not candidates:
                raise ClusterError(
                    f"shard {shard_id} has no followers to promote"
                )
            chosen = None
            for candidate in candidates:
                if candidate.replica_id == shard.primary.replica_id:
                    raise ClusterError(
                        f"{candidate.replica_id} is already the primary "
                        f"of {shard_id}"
                    )
                target = _ReplicaTarget(
                    shard_id, candidate.replica_id, candidate.address
                )
                try:
                    client = self.shard_client_factory(target)
                    try:
                        client.shard_status()
                    finally:
                        _close_quietly(client)
                except Exception:
                    continue
                chosen = candidate
                break
            if chosen is None:
                raise ClusterError(
                    f"shard {shard_id} has no reachable follower to promote"
                )
            new_map = shard_map.with_primary(shard_id, chosen.replica_id)
            self._publish_locked(new_map)
            if self.flight is not None:
                self.flight.record(
                    "primary_promoted",
                    shard=shard_id,
                    replica=chosen.replica_id,
                    epoch=new_map.epoch,
                )
        self.push_map()
        return new_map.to_wire()

    # -- splits -----------------------------------------------------------------

    def add_shard(self, shard_id: str, address) -> ShardMap:
        """Admit a new (empty) shard; epoch+1, no data moves yet.

        ``address`` is a plain ``host:port`` or a replica-set spec
        (list of ``(replica_id, address)`` pairs, primary first).
        """
        with self._lock:
            shard_map = self.current_map().with_shard(shard_id, address)
            self._publish_locked(shard_map)
        self.push_map()
        return shard_map

    def split(
        self,
        donor_id: str,
        target_id: str,
        *,
        moved: tuple[int, int] | None = None,
        stage_observer=None,
    ):
        """Run an online split migration donor → target; returns report.

        The target must already be in the map (see :meth:`add_shard`).
        Raises :class:`~repro.cluster.errors.MigrationFailed` on a stuck
        stage; re-calling resumes from the persisted state.
        """
        if pending_migration(self.store) is not None:
            return self.resume_migration(stage_observer=stage_observer)
        migration = ShardMigration(
            self.store,
            self.current_map(),
            donor_id,
            target_id,
            publish=self.publish,
            client_factory=self.shard_client_factory,
            moved=moved,
            stage_retries=self.stage_retries,
            stage_observer=stage_observer,
            flight=self.flight,
        )
        report = migration.run()
        self.push_map()
        return report

    def resume_migration(self, *, stage_observer=None):
        """Continue an interrupted migration; None when none is pending."""
        state = pending_migration(self.store)
        if state is None:
            return None
        migration = ShardMigration(
            self.store,
            self.current_map(),
            state["donor"],
            state["target"],
            publish=self.publish,
            client_factory=self.shard_client_factory,
            stage_retries=self.stage_retries,
            stage_observer=stage_observer,
            flight=self.flight,
        )
        report = migration.run()
        self.push_map()
        return report

    def abandon_migration(self) -> bool:
        """Drop a pending migration's state file (operator escape hatch).

        Safe at any stage before CUTOVER published; after publish the map
        is already switched and *resuming* is the right call — this is
        why the runbook says check ``migration_status`` first.
        """
        if self.store.load_migration() is None:
            return False
        self.store.clear_migration()
        return True


#: the coordinator's own RPC surface (exported by the cluster supervisor)
COORDINATOR_INTERFACE = Interface("Coordinator", version=1)
COORDINATOR_INTERFACE.method("get_map", returns=Pickled())
COORDINATOR_INTERFACE.method("epoch", returns=Int)
COORDINATOR_INTERFACE.method("shards", returns=DictOf(Str, Str))
COORDINATOR_INTERFACE.method("push_map", returns=DictOf(Str, Int))
COORDINATOR_INTERFACE.method("health", returns=Pickled())
COORDINATOR_INTERFACE.method("cluster_metrics", returns=Pickled())
COORDINATOR_INTERFACE.method("cluster_metrics_snapshot", returns=Pickled())
COORDINATOR_INTERFACE.method("cluster_metrics_text", returns=Str)
COORDINATOR_INTERFACE.method("cluster_trace_ids", returns=Pickled())
COORDINATOR_INTERFACE.method(
    "cluster_trace", params=[("trace_id", Str)], returns=Pickled()
)
COORDINATOR_INTERFACE.method("cluster_slo", returns=Pickled())
COORDINATOR_INTERFACE.method("flight_events", returns=Pickled())
COORDINATOR_INTERFACE.method("migration_status", returns=Pickled())
COORDINATOR_INTERFACE.method(
    "promote",
    params=[("shard_id", Str), ("replica_id", Str)],
    returns=Pickled(),
)
COORDINATOR_INTERFACE.error(ClusterError)


class RemoteCoordinator:
    """Typed client facade over the generated coordinator stubs."""

    def __init__(self, transport) -> None:
        from repro.rpc import RpcClient

        self._client = RpcClient(COORDINATOR_INTERFACE, transport)
        proxy = self._client.proxy()
        self.get_map = proxy.get_map
        self.epoch = proxy.epoch
        self.shards = proxy.shards
        self.push_map = proxy.push_map
        self.health = proxy.health
        self.cluster_metrics = proxy.cluster_metrics
        self.cluster_metrics_snapshot = proxy.cluster_metrics_snapshot
        self.cluster_metrics_text = proxy.cluster_metrics_text
        self.cluster_trace_ids = proxy.cluster_trace_ids
        self.cluster_trace = proxy.cluster_trace
        self.cluster_slo = proxy.cluster_slo
        self.flight_events = proxy.flight_events
        self.migration_status = proxy.migration_status
        self.promote = proxy.promote

    def shard_map(self) -> ShardMap:
        return ShardMap.from_wire(self.get_map())

    def close(self) -> None:
        self._client.close()
