"""The name server as a deployable process.

    python -m repro.nameserver.serve /var/lib/names --port 9999 \
        --replica-id east --peer west-host:9999 --sync-interval 30 \
        --checkpoint-updates 1000

Wires together everything a production instance needs: the database on a
real directory, the data and management RPC interfaces on one TCP
listener, optional peers with a background anti-entropy loop, and an
optional checkpoint policy.  ``build_node`` does all the assembly and is
what the tests (and embedders) call; ``main`` adds argument parsing and
blocks until interrupted.
"""

from __future__ import annotations

import argparse
import signal
import threading
import sys
from dataclasses import dataclass, field

from repro.core.daemon import CheckpointDaemon
from repro.core.version import read_current_version
from repro.core.policy import AnyOf, CheckpointPolicy, EveryNUpdates, LogSizeThreshold
from repro.nameserver.client import RemoteNameServer
from repro.nameserver.management import MANAGEMENT_INTERFACE, ManagementService
from repro.nameserver.replication import Replica
from repro.nameserver.server import NAMESERVER_INTERFACE
from repro.obs import (
    FlightRecorder,
    MetricsExporter,
    MetricsRegistry,
    SamplingProfiler,
    SlowOpLog,
    Tracer,
    node_routes,
)
from repro.rpc import EventLoopServer, RpcServer, TcpTransport
from repro.storage.localfs import LocalFS


@dataclass
class NodeOptions:
    """Everything configurable about one server process."""

    directory: str
    host: str = "127.0.0.1"
    port: int = 0
    replica_id: str = "primary"
    peers: list[str] = field(default_factory=list)  # "host:port" strings
    sync_interval: float = 30.0
    checkpoint_updates: int | None = None
    checkpoint_log_bytes: int | None = None
    #: bind an HTTP /metrics endpoint here (None disables; 0 = any port)
    metrics_port: int | None = None
    #: spans at least this long land in the slow-op log
    slow_op_threshold: float = 0.1
    #: extra attempts a faulted log append/fsync gets before degrading
    fault_retries: int = 2
    #: opt-in continuous profiling: sampling period in seconds for the
    #: background stack sampler (None disables; flame stacks then serve
    #: at ``/profile`` and through the ``profile`` management RPC)
    profile_interval: float | None = None
    #: when True, a node that is (or becomes) degraded automatically runs
    #: staged replica recovery against its peers: snapshot shipping,
    #: log-tail catch-up, atomic cutover (see repro.nameserver.recover)
    auto_recover: bool = False
    #: run as one shard of a cluster: enforce range ownership, answer
    #: WrongShard redirects, accept shard-map pushes and mirror commands
    #: (see repro.cluster).  The id must appear in the shard map.
    shard_id: str | None = None
    #: OS path (not a name inside the data directory) of the cluster's
    #: persisted shard map, read once at boot; later epochs arrive as
    #: install_shard_map pushes from the coordinator
    shard_map_file: str | None = None
    #: commit protocol for the database: "group" (default), "immediate"
    #: or "relaxed" (see repro.core.commit)
    durability: str = "group"
    #: model this many seconds of device commit latency on every fsync
    #: (wall-clock; see repro.storage.latency.ThrottledFS) — benchmark
    #: fidelity for commit-bound scaling runs, None disables
    commit_latency: float | None = None
    #: head-based trace sampling: record 1 in N new traces (1 = all).
    #: Sampled-out roots propagate no trace header, so a cluster of
    #: nodes at the same N samples coherently — a trace is either
    #: recorded on every node it touches or on none.
    trace_sample: int = 1


class Node:
    """One running name server process: replica + listener + daemons."""

    def __init__(self, options: NodeOptions) -> None:
        self.options = options
        # One registry and tracer span the whole node: storage, database,
        # replication and RPC all record into the same export.
        self.registry = MetricsRegistry()
        self.slow_log = SlowOpLog(threshold_seconds=options.slow_op_threshold)
        self.tracer = Tracer(
            slow_log=self.slow_log, sample_1_in=options.trace_sample
        )
        self.flight = FlightRecorder()
        self.profiler: SamplingProfiler | None = None
        if options.profile_interval is not None:
            self.profiler = SamplingProfiler(
                interval_seconds=options.profile_interval
            ).start()
        # Kept for recovery: the recoverer rebuilds the replica on the
        # same filesystem with the same database options after cutover.
        self._fs = LocalFS(options.directory, registry=self.registry)
        if options.commit_latency is not None:
            from repro.storage.latency import ThrottledFS

            self._fs = ThrottledFS(
                self._fs, fsync_seconds=options.commit_latency
            )
        self._db_options = dict(
            registry=self.registry,
            tracer=self.tracer,
            fault_retries=options.fault_retries,
            flight=self.flight,
            durability=options.durability,
        )
        self._recover_lock = threading.Lock()
        # A directory with no committed version is a replacement device
        # (or an interrupted recovery's staged files): gossip alone can
        # never rebuild it once peers have checkpointed past their
        # history, so it is a recovery trigger alongside bad health.
        was_blank = read_current_version(self._fs) is None
        self.replica = Replica(
            self._fs, options.replica_id, **self._db_options
        )
        self._peer_transports: list[TcpTransport] = []
        self._connect_peers()

        self.rpc = RpcServer(registry=self.registry, tracer=self.tracer)
        self.shard = None
        if options.shard_id is not None:
            self._export_data_plane(self.replica)
        else:
            self.rpc.export(NAMESERVER_INTERFACE, self.replica)
        self.management = ManagementService(
            self.replica,
            slow_log=self.slow_log,
            profiler=self.profiler,
            recover_hook=self.recover,
        )
        self.rpc.export(MANAGEMENT_INTERFACE, self.management)
        self.listener = EventLoopServer(
            self.rpc, host=options.host, port=options.port,
            flight=self.flight,
        ).start()

        self.metrics_exporter: MetricsExporter | None = None
        if options.metrics_port is not None:
            self.metrics_exporter = MetricsExporter(
                node_routes(self.registry, self.tracer, self.slow_log, self.profiler),
                host=options.host,
                port=options.metrics_port,
            ).start()

        self._stop = threading.Event()
        self._sync_thread: threading.Thread | None = None
        if options.peers:
            self._sync_thread = threading.Thread(
                target=self._sync_loop, name="anti-entropy", daemon=True
            )
            self._sync_thread.start()

        self.checkpoint_daemon: CheckpointDaemon | None = None
        policy = _build_policy(options)
        if policy is not None:
            self.checkpoint_daemon = CheckpointDaemon(
                self.replica.db, policy, poll_interval=0.25
            ).start()

        if (
            options.auto_recover
            and (self.replica.db.health != "healthy" or was_blank)
            and self.replica.peers
        ):
            # The node came up degraded — or fresh on an empty directory —
            # with peers reachable: repair now rather than serving stale
            # (or no) data until an operator notices.  Failure is
            # survivable — the node keeps serving and the sync loop
            # retries.
            try:
                self.recover()
            except Exception:
                pass  # recorded by the recoverer's flight events/metrics

    @property
    def port(self) -> int:
        return self.listener.port

    def _connect_peers(self) -> None:
        """Connect to peers; ones that are down are retried by the loop.

        A node must come up before its peers do (whole-cluster cold
        starts), so connection failures here are recorded, not fatal.
        """
        self.unreachable_peers: list[str] = []
        for address in self.options.peers:
            if not self._try_connect(address):
                self.unreachable_peers.append(address)

    def _try_connect(self, address: str) -> bool:
        host, _, port_text = address.rpartition(":")
        try:
            transport = TcpTransport(host, int(port_text))
        except Exception:
            return False
        self._peer_transports.append(transport)
        self.replica.add_peer(RemoteNameServer(transport))
        return True

    def _sync_loop(self) -> None:
        while not self._stop.wait(self.options.sync_interval):
            # Retry peers that were unreachable at startup.
            for address in list(self.unreachable_peers):
                if self._try_connect(address):
                    self.unreachable_peers.remove(address)
            if (
                self.options.auto_recover
                and self.replica.peers
                and (
                    self.replica.db.health != "healthy"
                    # gossip cannot close a gap wider than a peer's
                    # history window; state transfer can
                    or "pull" in self.replica.peer_truncated.values()
                )
            ):
                try:
                    self.recover()
                except Exception:
                    pass  # degraded but alive; retried next round
                continue
            self.replica.propagate()
            for peer in list(self.replica.peers):
                try:
                    self.replica.sync_from(peer)
                except Exception:
                    # Peer down: next round will retry.  Or this replica
                    # is behind the peer's history window, which it has
                    # noted: next round recovers (or goes on serving).
                    continue

    def recover(self) -> dict:
        """Rebuild this node's replica from its peers; returns the report.

        The staged recoverer (snapshot shipping → log-tail catch-up →
        atomic cutover) runs against the already-connected peer proxies.
        The old database is closed first — cutover produces a *new*
        replica on the same directory — and the node's RPC exports and
        checkpoint daemon are re-wired to the rebuilt instance, so
        clients never see a different address, only a brief refusal
        window while stages run.  If recovery fails — or no peer took the
        hand-over a healthy node owes first — the original database is
        reopened and keeps serving.
        """
        from dataclasses import asdict

        from repro.nameserver.recover import ReplicaRecoverer

        with self._recover_lock:
            if not self.replica.peers:
                raise RuntimeError(
                    "replica recovery needs at least one connected peer"
                )
            peers = donors = list(self.replica.peers)
            monitor = self.replica.db.health_monitor
            if monitor.degrade("rebuilding from a peer", reason="recovery"):
                # A healthy node — behind a peer's history window, or the
                # operator's call.  Cutover replaces this directory with a
                # peer's state, so first refuse new updates, let those in
                # flight land, and hand the peers whatever only this node
                # holds; a peer that push did not reach is no donor
                # (``peer_errors`` is in ``add_peer`` order, like ``peers``).
                with self.replica.db.lock.update():
                    pass
                self.replica.propagate()
                errors = self.replica.peer_errors.values()
                donors = [peer for peer, error in zip(peers, errors) if error is None]
            try:
                self.replica.close()
            except Exception:
                pass  # a faulted device may refuse even the close
            if self.checkpoint_daemon is not None:
                self.checkpoint_daemon.stop()
                self.checkpoint_daemon = None
            try:
                recoverer = ReplicaRecoverer(
                    self._fs,
                    self.options.replica_id,
                    donors,
                    registry=self.registry,
                    flight=self.flight,
                    health_monitor=monitor,
                    db_options=self._db_options,
                )
                replica = recoverer.run()
            except Exception:
                # The staged files are invisible to restarts; reopen the
                # old committed state so enquiries keep flowing.
                self._rewire(
                    Replica(
                        self._fs,
                        self.options.replica_id,
                        **self._db_options,
                    ),
                    peers,
                )
                raise
            self._rewire(replica, peers)
            return asdict(recoverer.report)

    def _export_data_plane(self, replica: Replica) -> None:
        """Export the replica as a cluster shard (ownership-enforcing)."""
        from repro.cluster.shard import SHARD_INTERFACE, ShardService
        from repro.cluster.shardmap import ShardMap

        shard_map = _read_shard_map_file(self.options.shard_map_file)
        if shard_map is None:
            raise ValueError(
                f"shard {self.options.shard_id!r} needs --shard-map "
                f"pointing at the coordinator's published map"
            )
        assert isinstance(shard_map, ShardMap)
        # A replicated shard propagates each acked update to its peers
        # synchronously: one node loss then cannot lose an acked write
        # (the ack waited for the push whenever a follower was up).
        self.shard = ShardService(
            replica,
            self.options.shard_id,
            shard_map,
            replica_id=self.options.replica_id,
            eager_propagate=(
                self._eager_propagate if self.options.peers else False
            ),
        )
        self.rpc.export(SHARD_INTERFACE, self.shard)

    def _eager_propagate(self) -> None:
        """The shard's post-ack push: reconnect stragglers, then gossip.

        Peers that were down when this node booted (whole-cluster cold
        starts spawn every replica at once) would otherwise stay
        unconnected until the anti-entropy loop's next tick — far too
        late for the "acked update exists on two nodes" property.
        """
        for address in list(self.unreachable_peers):
            if self._try_connect(address):
                self.unreachable_peers.remove(address)
        self.replica.propagate()

    def _rewire(self, replica: Replica, peers: list[object]) -> None:
        """Point the node's moving parts at a freshly opened replica."""
        for peer in peers:
            replica.add_peer(peer)
        self.replica = replica
        if self.shard is not None:
            # Keep the shard's live map (it may be epochs past the boot
            # file); only the wrapped server changes.
            self.shard.server = replica
        else:
            self.rpc.export(NAMESERVER_INTERFACE, replica)
        self.management.server = replica
        policy = _build_policy(self.options)
        if policy is not None:
            self.checkpoint_daemon = CheckpointDaemon(
                replica.db, policy, poll_interval=0.25
            ).start()

    def sync_now(self) -> int:
        """One synchronous gossip round (used by tests and operators)."""
        moved = self.replica.propagate()
        for peer in list(self.replica.peers):
            try:
                moved += self.replica.sync_from(peer)
            except Exception:
                continue
        return moved

    def dump_blackbox(self) -> str:
        """Write the flight ring into the data directory; returns its path.

        Called on SIGTERM so an externally-killed node still leaves its
        final moments behind for ``tools/postmortem.py``.
        """
        name = self.flight.dump_to(LocalFS(self.options.directory))
        return f"{self.options.directory}/{name}"

    def shutdown(self) -> None:
        self._stop.set()
        if self.metrics_exporter is not None:
            self.metrics_exporter.stop()
        if self.profiler is not None:
            self.profiler.stop()
        if self.checkpoint_daemon is not None:
            self.checkpoint_daemon.stop()
        if self._sync_thread is not None:
            self._sync_thread.join(5)
        self.listener.stop()
        for transport in self._peer_transports:
            transport.close()
        self.replica.close()

    def __enter__(self) -> "Node":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def _read_shard_map_file(path: str | None):
    """Load a published shard map from an ordinary OS path (or None)."""
    if path is None:
        return None
    import json

    from repro.cluster.shardmap import ShardMap

    with open(path, "r", encoding="ascii") as handle:
        return ShardMap.from_wire(json.load(handle))


def _build_policy(options: NodeOptions) -> CheckpointPolicy | None:
    policies: list[CheckpointPolicy] = []
    if options.checkpoint_updates:
        policies.append(EveryNUpdates(options.checkpoint_updates))
    if options.checkpoint_log_bytes:
        policies.append(LogSizeThreshold(options.checkpoint_log_bytes))
    if not policies:
        return None
    return policies[0] if len(policies) == 1 else AnyOf(*policies)


def build_node(options: NodeOptions) -> Node:
    """Assemble a running node from options (the testable entry point)."""
    return Node(options)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.nameserver.serve",
        description="Run a (optionally replicated) name server.",
    )
    parser.add_argument("directory", help="database directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--replica-id", default="primary")
    parser.add_argument(
        "--peer", action="append", default=[], metavar="HOST:PORT",
        help="peer replica to gossip with (repeatable)",
    )
    parser.add_argument("--sync-interval", type=float, default=30.0)
    parser.add_argument(
        "--checkpoint-updates", type=int, default=None,
        help="checkpoint after this many updates",
    )
    parser.add_argument(
        "--checkpoint-log-bytes", type=int, default=None,
        help="checkpoint when the log exceeds this many bytes",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve Prometheus /metrics on this port (0 = any free port)",
    )
    parser.add_argument(
        "--slow-op-threshold", type=float, default=0.1,
        help="spans at least this many seconds land in the slow-op log",
    )
    parser.add_argument(
        "--fault-retries", type=int, default=2,
        help="extra attempts a faulted log append/fsync gets before the "
        "database degrades",
    )
    parser.add_argument(
        "--profile-interval", type=float, default=None, metavar="SECONDS",
        help="enable continuous profiling with this sampling period "
        "(flame stacks at /profile and via the profile management RPC)",
    )
    parser.add_argument(
        "--shard-id", default=None,
        help="serve as this shard of a cluster (requires --shard-map); "
        "keyed requests outside the owned ranges answer WrongShard",
    )
    parser.add_argument(
        "--shard-map", default=None, metavar="PATH",
        help="path to the coordinator's published shard map (read at "
        "boot; later epochs arrive over RPC)",
    )
    parser.add_argument(
        "--durability", choices=["group", "immediate", "relaxed"],
        default="group", help="commit protocol (see repro.core.commit)",
    )
    parser.add_argument(
        "--commit-latency", type=float, default=None, metavar="SECONDS",
        help="model this much device commit latency on every fsync "
        "(wall-clock sleep; benchmark fidelity for commit-bound runs)",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="head-sample 1 in N traces (1 = trace everything); "
        "sampled-out requests propagate no trace header, so a cluster "
        "at the same N samples coherently",
    )
    parser.add_argument(
        "--auto-recover", action="store_true",
        help="when degraded or booting on an empty directory, "
        "automatically rebuild this replica from a peer (snapshot "
        "shipping + log-tail catch-up + atomic cutover)",
    )
    args = parser.parse_args(argv)

    node = build_node(
        NodeOptions(
            directory=args.directory,
            host=args.host,
            port=args.port,
            replica_id=args.replica_id,
            peers=args.peer,
            sync_interval=args.sync_interval,
            checkpoint_updates=args.checkpoint_updates,
            checkpoint_log_bytes=args.checkpoint_log_bytes,
            metrics_port=args.metrics_port,
            slow_op_threshold=args.slow_op_threshold,
            fault_retries=args.fault_retries,
            profile_interval=args.profile_interval,
            auto_recover=args.auto_recover,
            shard_id=args.shard_id,
            shard_map_file=args.shard_map,
            durability=args.durability,
            commit_latency=args.commit_latency,
            trace_sample=args.trace_sample,
        )
    )
    extra = ""
    if node.metrics_exporter is not None:
        extra = f", metrics on :{node.metrics_exporter.port}"
    print(
        f"name server {args.replica_id!r} on {node.listener.host}:{node.port}, "
        f"{node.replica.count()} names recovered{extra}",
        flush=True,
    )
    # SIGTERM (the orchestrator's kill) unblocks the wait below so the
    # node can dump its black box and shut down cleanly, same as Ctrl-C.
    terminated = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: terminated.set())
    try:
        terminated.wait()  # serve until interrupted
    except KeyboardInterrupt:
        pass
    finally:
        try:
            where = node.dump_blackbox()
            print(f"flight recorder dumped to {where}", flush=True)
        except Exception:
            pass  # dumping must never block shutdown
        node.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via build_node()
    sys.exit(main())
