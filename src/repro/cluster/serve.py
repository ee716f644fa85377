"""The cluster as a deployable unit: N×R shard processes + a coordinator.

    python -m repro.cluster.serve /var/lib/cluster --shards 4 \
        --replicas 2 --port 9800

Each replica is an ordinary ``repro.nameserver.serve`` process — its own
directory, log, checkpoint and version files, its own event-loop TCP
front end — started with ``--shard-id``/``--shard-map`` so it enforces
range ownership and ``--replica-id`` so it knows its role under the
map.  With ``--replicas R > 1`` every shard is a replica group: the
primary and its followers gossip as peers (anti-entropy loop), the
primary eagerly propagates each acked write, followers answer reads and
redirect writes, and every process runs with ``--auto-recover`` so a
replaced replica rebuilds itself from its peers (snapshot shipping +
log-tail catch-up) without an operator.

The coordinator runs *in this process*: it owns the persisted shard map
(``coordinator/shardmap.json``), serves the ``Coordinator`` RPC
interface, health-checks the replicas, promotes a follower when a
primary dies (:meth:`ClusterSupervisor.failover_check`), and drives
online splits.  ``ClusterSupervisor`` is the embeddable form the tests
and benchmarks use; ``main`` adds argument parsing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.cluster.coordinator import (
    COORDINATOR_INTERFACE,
    SHARDMAP_FILE,
    Coordinator,
)
from repro.cluster.router import ShardRouter
from repro.obs.aggregate import cluster_routes
from repro.obs.export import MetricsExporter
from repro.obs.flight import BLACKBOX_FILE, FLIGHT_FORMAT, FlightRecorder
from repro.rpc import EventLoopServer, RpcServer
from repro.storage.localfs import LocalFS

#: how long one shard process may take to print its ready line
BOOT_TIMEOUT = 30.0


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the OS for a currently free TCP port (bind 0, close).

    Racy in principle; in practice the window between close and the
    shard's own bind is milliseconds, and a clash fails the boot loudly.
    """
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


class ShardProcess:
    """One spawned replica: its process, endpoint and log file."""

    def __init__(
        self,
        shard_id: str,
        directory: str,
        logfile: str,
        host: str,
        port: int,
        map_path: str,
        extra_args: list[str],
        replica_id: str | None = None,
        peers: list[str] | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id if replica_id is not None else shard_id
        self.directory = directory
        self.logfile = logfile
        self.host = host
        self.port = port
        os.makedirs(directory, exist_ok=True)
        peer_args: list[str] = []
        for peer in peers or []:
            peer_args += ["--peer", peer]
        command = [
            sys.executable, "-m", "repro.nameserver.serve", directory,
            "--host", host, "--port", str(port),
            "--replica-id", self.replica_id,
            "--shard-id", shard_id, "--shard-map", map_path,
            *peer_args,
            *extra_args,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = _src_root() + os.pathsep + env.get("PYTHONPATH", "")
        # A restart appends to the previous run's log: only bytes written
        # after this point count as *this* process's ready line.
        self._log_offset = (
            os.path.getsize(logfile) if os.path.exists(logfile) else 0
        )
        self._log_handle = open(logfile, "ab")
        self.process = subprocess.Popen(
            command,
            stdout=self._log_handle,
            stderr=subprocess.STDOUT,
            env=env,
        )

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def wait_ready(self, timeout: float = BOOT_TIMEOUT) -> None:
        """Block until the serve process prints its ready line."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"shard {self.shard_id} exited with "
                    f"{self.process.returncode} during boot:\n{self.tail()}"
                )
            try:
                with open(self.logfile, "rb") as handle:
                    handle.seek(self._log_offset)
                    if b"name server" in handle.read():
                        return
            except OSError:
                pass
            time.sleep(0.02)
        raise TimeoutError(
            f"shard {self.shard_id} not ready after {timeout}s:\n{self.tail()}"
        )

    def tail(self, nbytes: int = 2000) -> str:
        try:
            with open(self.logfile, "rb") as handle:
                data = handle.read()
            return data[-nbytes:].decode("utf-8", "replace")
        except OSError:
            return "<no log>"

    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL — the chaos path: no graceful shutdown, no flush."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(10)
        self._log_handle.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self.process.poll() is None:
            self.process.terminate()  # SIGTERM: dumps the black box
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(5)
        self._log_handle.close()


class ClusterSupervisor:
    """Boot and own a multi-process shard cluster plus its coordinator."""

    def __init__(
        self,
        base_dir: str,
        num_shards: int = 4,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_args: list[str] | None = None,
        replicas: int = 1,
        metrics_port: int | None = None,
        trace_sample: int = 1,
    ) -> None:
        if replicas < 1:
            raise ValueError("a shard needs at least one replica")
        self.base_dir = base_dir
        self.host = host
        self.replicas = replicas
        self.shard_args = list(shard_args or [])
        if trace_sample > 1 and "--trace-sample" not in " ".join(
            self.shard_args
        ):
            self.shard_args += ["--trace-sample", str(trace_sample)]
        os.makedirs(os.path.join(base_dir, "logs"), exist_ok=True)
        coordinator_dir = os.path.join(base_dir, "coordinator")
        os.makedirs(coordinator_dir, exist_ok=True)
        #: the supervisor/coordinator's own black box: promotions, map
        #: epochs, replica kills/losses, SLO burn alerts.
        self.flight = FlightRecorder()
        self.coordinator = Coordinator(
            LocalFS(coordinator_dir),
            flight=self.flight,
            trace_sample=trace_sample,
        )
        self.map_path = os.path.join(coordinator_dir, SHARDMAP_FILE)
        #: {replica_id: its process} — one entry per spawned replica
        self.processes: dict[str, ShardProcess] = {}
        #: replicas whose unexpected death was already recorded/salvaged
        self._lost_reported: set[str] = set()

        if self.coordinator.map is None:
            addresses = {
                f"s{i}": self._replica_spec(f"s{i}")
                for i in range(num_shards)
            }
            self.coordinator.bootstrap(addresses)
        # (Re)spawn one process per mapped replica, at its mapped address.
        for shard in self.coordinator.current_map().shards:
            for replica in shard.replica_set:
                self._spawn(shard, replica)
        for proc in self.processes.values():
            proc.wait_ready()
        # An interrupted split resumes before the cluster opens for
        # business — the map must not stay half-moved.
        self.coordinator.resume_migration()

        self.rpc = RpcServer()
        self.rpc.export(COORDINATOR_INTERFACE, self.coordinator)
        self.listener = EventLoopServer(self.rpc, host=host, port=port).start()

        #: optional HTTP endpoint serving ``/cluster/metrics`` rollups
        self.metrics_exporter: MetricsExporter | None = None
        if metrics_port is not None:
            self.metrics_exporter = MetricsExporter(
                cluster_routes(self.coordinator.aggregator, self.coordinator.cluster_slo),
                host=host,
                port=metrics_port,
            ).start()

    # -- assembly ----------------------------------------------------------------

    def _replica_spec(self, shard_id: str):
        """Fresh (replica_id, address) pairs for one shard, primary first.

        A single-replica cluster keeps the plain ``host:port`` form so
        its map file stays byte-compatible with pre-replication runs.
        """
        if self.replicas == 1:
            return f"{self.host}:{free_port(self.host)}"
        return [
            (
                shard_id if k == 0 else f"{shard_id}r{k}",
                f"{self.host}:{free_port(self.host)}",
            )
            for k in range(self.replicas)
        ]

    def _spawn(self, shard, replica) -> ShardProcess:
        host, _, port = replica.address.rpartition(":")
        siblings = [
            peer.address
            for peer in shard.replica_set
            if peer.replica_id != replica.replica_id
        ]
        extra = list(self.shard_args)
        if siblings and "--auto-recover" not in extra:
            extra.append("--auto-recover")
        if siblings and "--sync-interval" not in " ".join(extra):
            # Replicated shards converge by anti-entropy too; the
            # default 30s tick is an eternity next to failover.
            extra += ["--sync-interval", "2"]
        proc = ShardProcess(
            shard.shard_id,
            os.path.join(self.base_dir, "data", replica.replica_id),
            os.path.join(self.base_dir, "logs", f"{replica.replica_id}.log"),
            host,
            int(port),
            self.map_path,
            extra,
            replica_id=replica.replica_id,
            peers=siblings,
        )
        self.processes[replica.replica_id] = proc
        return proc

    @property
    def port(self) -> int:
        return self.listener.port

    @property
    def address(self) -> str:
        return f"{self.listener.host}:{self.listener.port}"

    def router(self, **options) -> ShardRouter:
        return ShardRouter(self.coordinator.current_map(), **options)

    # -- operations --------------------------------------------------------------

    def add_shard(self, shard_id: str | None = None) -> str:
        """Spawn an empty shard (replica group) and admit it to the map."""
        if shard_id is None:
            index = len(self.coordinator.current_map().shards)
            while f"s{index}" in self.processes:
                index += 1
            shard_id = f"s{index}"
        self.coordinator.add_shard(shard_id, self._replica_spec(shard_id))
        shard = self.coordinator.current_map().shard(shard_id)
        spawned = [
            self._spawn(shard, replica) for replica in shard.replica_set
        ]
        for proc in spawned:
            proc.wait_ready()
        self.coordinator.push_map()
        return shard_id

    def kill_replica(self, replica_id: str) -> None:
        """SIGKILL one replica's process (the chaos/benchmark path).

        SIGKILL means the victim's own SIGTERM black-box dump never
        runs, so the supervisor takes the dump *for* it first: it pulls
        the flight ring over the management RPC and writes the standard
        black-box file into the replica's data directory before the
        kill.  Best-effort — a replica too wedged to answer still dies,
        just without a box — and always recorded in the supervisor's own
        flight ring.
        """
        proc = self.processes[replica_id]
        salvaged = self._dump_blackbox(proc, cause="supervisor_kill")
        proc.kill()
        self.flight.record(
            "replica_killed", replica=replica_id, blackbox=salvaged
        )

    def _dump_blackbox(self, proc: ShardProcess, cause: str) -> bool:
        """Write ``data/<rid>/blackbox.json`` from the live flight ring."""
        if not proc.alive():
            return os.path.exists(os.path.join(proc.directory, BLACKBOX_FILE))
        try:
            mgmt = self.coordinator.management_factory(proc.address)
            try:
                events = mgmt.flight_events()
            finally:
                close = getattr(mgmt, "close", None)
                if close is not None:
                    close()
        except Exception:
            return False
        box = {
            "format": FLIGHT_FORMAT,
            "dumped_at": time.time(),
            "recorded": len(events),
            "dropped": 0,
            "events": events,
            "node": proc.replica_id,
            "cause": cause,
        }
        path = os.path.join(proc.directory, BLACKBOX_FILE)
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(box, handle, sort_keys=True)
        except OSError:
            return False
        return True

    def _salvage_blackbox(self, replica_id: str) -> str | None:
        """Copy a dead replica's on-disk box into ``postmortem/``.

        A replica that died unexpectedly (crash, OOM kill) may still
        have dumped a box on its way down, or the supervisor may have
        written one at kill time; either way the evidence is preserved
        under a name that survives the replica's directory being wiped
        by repair.
        """
        source = os.path.join(
            self.base_dir, "data", replica_id, BLACKBOX_FILE
        )
        if not os.path.exists(source):
            return None
        salvage_dir = os.path.join(self.base_dir, "postmortem")
        os.makedirs(salvage_dir, exist_ok=True)
        epoch = self.coordinator.current_map().epoch
        target = os.path.join(
            salvage_dir, f"{replica_id}-epoch{epoch}-{BLACKBOX_FILE}"
        )
        try:
            shutil.copyfile(source, target)
        except OSError:
            return None
        return target

    def failover_check(self) -> list[str]:
        """Promote a follower on every shard whose primary process died.

        The supervisor's detection loop: a killed or crashed primary is
        fenced by an epoch-bumped map with a surviving follower at the
        head of the replica set.  Returns the shard ids promoted.
        Shards whose primary is healthy — or with no reachable follower
        (nothing safe to do) — are left alone.
        """
        from repro.cluster.errors import ClusterError

        promoted = []
        for shard in self.coordinator.current_map().shards:
            proc = self.processes.get(shard.primary.replica_id)
            if proc is None or proc.alive():
                continue
            if shard.primary.replica_id not in self._lost_reported:
                self._lost_reported.add(shard.primary.replica_id)
                salvaged = self._salvage_blackbox(shard.primary.replica_id)
                self.flight.record(
                    "replica_lost",
                    replica=shard.primary.replica_id,
                    shard=shard.shard_id,
                    blackbox=salvaged or "",
                )
            if not shard.followers:
                continue
            try:
                self.coordinator.promote(shard.shard_id)
                promoted.append(shard.shard_id)
            except ClusterError:
                continue  # no reachable follower yet; retried next check
        return promoted

    def repair_replica(self, replica_id: str) -> ShardProcess:
        """Respawn a dead replica at its mapped address.

        The fresh process starts on its (possibly stale or wiped)
        directory with ``--auto-recover``: it rebuilds from its peers by
        snapshot shipping + log-tail catch-up and rejoins the gossip
        loop — automatic replica repair, no operator in the loop.
        """
        old = self.processes.get(replica_id)
        if old is not None and old.alive():
            raise RuntimeError(f"replica {replica_id} is still running")
        self._lost_reported.discard(replica_id)
        shard = self.coordinator.current_map().shard_of_replica(replica_id)
        replica = shard.replica(replica_id)
        proc = self._spawn(shard, replica)
        proc.wait_ready()
        self.coordinator.push_map()
        return proc

    def split(self, donor_id: str, target_id: str | None = None, **kwargs):
        """Online split: admit a target if needed, migrate half the range."""
        if target_id is None:
            target_id = self.add_shard()
        return self.coordinator.split(donor_id, target_id, **kwargs), target_id

    def shutdown(self) -> None:
        if self.metrics_exporter is not None:
            self.metrics_exporter.stop()
        self.listener.stop()
        for proc in self.processes.values():
            proc.stop()

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def _src_root() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cluster.serve",
        description="Run a sharded name service cluster (N shard "
        "processes + an in-process coordinator).",
    )
    parser.add_argument("directory", help="cluster base directory")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--replicas", type=int, default=1,
        help="replicas per shard (1 primary + R-1 auto-recovering "
        "followers)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="coordinator RPC port (0 = any free port)",
    )
    parser.add_argument(
        "--shard-arg", action="append", default=[], metavar="ARG",
        help="extra argument passed to every shard's serve process "
        "(repeatable, e.g. --shard-arg=--durability=immediate)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve cluster-wide metric rollups over HTTP at "
        "/cluster/metrics (0 = any free port)",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="head-sample 1 in N traces cluster-wide (1 = every trace)",
    )
    args = parser.parse_args(argv)

    # Registered before boot so a prompt SIGTERM still shuts down cleanly.
    terminated = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: terminated.set())
    supervisor = ClusterSupervisor(
        args.directory,
        num_shards=args.shards,
        host=args.host,
        port=args.port,
        shard_args=args.shard_arg,
        replicas=args.replicas,
        metrics_port=args.metrics_port,
        trace_sample=args.trace_sample,
    )
    shard_map = supervisor.coordinator.current_map()
    print(
        f"cluster of {len(shard_map.shards)} shards at epoch "
        f"{shard_map.epoch}, coordinator on {supervisor.address}",
        flush=True,
    )
    if supervisor.metrics_exporter is not None:
        print(
            "cluster metrics on http://"
            f"{args.host}:{supervisor.metrics_exporter.port}/cluster/metrics",
            flush=True,
        )
    for shard in shard_map.shards:
        for replica in shard.replica_set:
            role = shard.role_of(replica.replica_id)
            print(
                f"  {shard.shard_id}/{replica.replica_id} ({role}) "
                f"on {replica.address}",
                flush=True,
            )
    try:
        terminated.wait()
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the supervisor
    sys.exit(main())
