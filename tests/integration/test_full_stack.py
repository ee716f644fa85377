"""Full-stack integration: replicated name service over real TCP.

Two replicas, each exporting the data interface and the management
interface on a real socket.  Clients bind through one, reads come from
the other after propagation; one replica "fails" (its process state is
dropped, its file system crashes) and comes back, resynchronising over
the wire.
"""

from __future__ import annotations

import pytest

from repro.nameserver import (
    MANAGEMENT_INTERFACE,
    NAMESERVER_INTERFACE,
    ManagementService,
    NameNotFound,
    RemoteManagement,
    RemoteNameServer,
    Replica,
)
from repro.rpc import EventLoopServer, RpcServer, TcpTransport
from repro.sim import SimClock
from repro.storage import SimFS


class ReplicaHost:
    """One 'machine': a replica with its TCP front end."""

    def __init__(self, replica_id: str, fs: SimFS | None = None) -> None:
        self.replica_id = replica_id
        self.fs = fs if fs is not None else SimFS(clock=SimClock())
        self.replica = Replica(self.fs, replica_id)
        self.rpc = RpcServer()
        self.rpc.export(NAMESERVER_INTERFACE, self.replica)
        self.rpc.export(MANAGEMENT_INTERFACE, ManagementService(self.replica))
        self.listener = EventLoopServer(self.rpc).start()
        self._transports: list[TcpTransport] = []

    def data_client(self) -> RemoteNameServer:
        transport = TcpTransport(self.listener.host, self.listener.port)
        self._transports.append(transport)
        return RemoteNameServer(transport)

    def management_client(self) -> RemoteManagement:
        transport = TcpTransport(self.listener.host, self.listener.port)
        self._transports.append(transport)
        return RemoteManagement(transport)

    def crash_and_restart(self) -> None:
        """The machine halts: volatile state gone, then a restart."""
        self.listener.stop()
        self.fs.crash()
        self.replica = Replica(self.fs, self.replica_id)
        self.rpc = RpcServer()
        self.rpc.export(NAMESERVER_INTERFACE, self.replica)
        self.rpc.export(MANAGEMENT_INTERFACE, ManagementService(self.replica))
        self.listener = EventLoopServer(self.rpc).start()

    def shutdown(self) -> None:
        for transport in self._transports:
            transport.close()
        self.listener.stop()


@pytest.fixture
def hosts():
    built: list[ReplicaHost] = []
    try:
        a = ReplicaHost("a")
        b = ReplicaHost("b")
        built.extend([a, b])
        # Each replica gossips with the other over TCP.
        a.replica.add_peer(b.data_client())
        b.replica.add_peer(a.data_client())
        yield a, b
    finally:
        for host in built:
            host.shutdown()


class TestFullStack:
    def test_write_one_read_other_after_propagation(self, hosts):
        a, b = hosts
        client_a = a.data_client()
        client_b = b.data_client()
        client_a.bind("services/spooler", {"host": "src-3"})
        assert a.replica.propagate() == 1
        assert client_b.lookup("services/spooler") == {"host": "src-3"}

    def test_management_over_tcp(self, hosts):
        a, _b = hosts
        client = a.data_client()
        manager = a.management_client()
        client.bind("x", 1)
        status = manager.status()
        assert status["replica_id"] == "a"
        assert status["names"] == 1
        assert manager.is_replica() is True
        version = manager.force_checkpoint()
        assert version == 2
        assert manager.log_bytes() == 0

    def test_replica_crash_restart_resync(self, hosts):
        a, b = hosts
        client_a = a.data_client()
        client_a.bind("before/crash", 1)
        a.replica.propagate()

        b.crash_and_restart()
        # b recovered its durable state from its own disk.
        restarted_client = b.data_client()
        assert restarted_client.lookup("before/crash") == 1

        # Updates a took while b was down flow over on the next sync.
        client_a.bind("while/down", 2)
        b.replica.sync_from(a.data_client())
        assert restarted_client.lookup("while/down") == 2

    def test_propagation_survives_peer_outage(self, hosts):
        a, b = hosts
        client_a = a.data_client()
        b.listener.stop()  # b unreachable
        client_a.bind("queued", 1)
        assert a.replica.propagate() == 0  # best effort, no delivery
        assert a.replica.propagation_failures >= 1
        b.crash_and_restart()
        a.replica.peers = [b.data_client()]  # reconnect
        assert a.replica.propagate() == 1
        assert b.data_client().lookup("queued") == 1

    def test_typed_errors_cross_the_real_network(self, hosts):
        a, _b = hosts
        client = a.data_client()
        with pytest.raises(NameNotFound):
            client.lookup("never/bound")
