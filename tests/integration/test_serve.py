"""The deployable server process (repro.nameserver.serve)."""

from __future__ import annotations

import time

import pytest

from repro.nameserver import RemoteNameServer, RemoteManagement
from repro.nameserver.serve import Node, NodeOptions, build_node
from repro.obs.flight import BLACKBOX_FILE, load_blackbox
from repro.rpc import TcpTransport
from repro.tools.postmortem import (
    build_cluster_timeline,
    gather_cluster_dir,
    render_cluster_timeline,
)


def data_client(node: Node) -> RemoteNameServer:
    return RemoteNameServer(TcpTransport(node.listener.host, node.port))


def mgmt_client(node: Node) -> RemoteManagement:
    return RemoteManagement(TcpTransport(node.listener.host, node.port))


class TestSingleNode:
    def test_serves_data_and_management(self, tmp_path):
        with build_node(NodeOptions(str(tmp_path / "db"))) as node:
            client = data_client(node)
            client.bind("svc/db", {"port": 5432})
            assert client.lookup("svc/db") == {"port": 5432}
            manager = mgmt_client(node)
            assert manager.status()["names"] == 1

    def test_restart_recovers(self, tmp_path):
        directory = str(tmp_path / "db")
        with build_node(NodeOptions(directory)) as node:
            data_client(node).bind("persisted", 42)
        with build_node(NodeOptions(directory)) as node:
            assert data_client(node).lookup("persisted") == 42

    def test_checkpoint_policy_option(self, tmp_path):
        options = NodeOptions(str(tmp_path / "db"), checkpoint_updates=5)
        with build_node(options) as node:
            client = data_client(node)
            for i in range(6):
                client.bind(f"k{i}", i)
            deadline = time.monotonic() + 5
            while (
                node.replica.db.stats.checkpoints == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert node.replica.db.stats.checkpoints >= 1


class TestBlackBox:
    def test_dump_lands_in_the_data_directory(self, tmp_path):
        directory = tmp_path / "data" / "r0"
        with build_node(NodeOptions(str(directory), replica_id="r0")) as node:
            data_client(node).bind("svc/db", 1)
            node.replica.checkpoint()
            path = node.dump_blackbox()
        assert path == f"{directory}/{BLACKBOX_FILE}"
        with open(path, "rb") as f:
            dump = load_blackbox(f.read())
        kinds = {e["kind"] for e in dump["events"]}
        assert {"commit_fsync", "checkpoint_switch"} <= kinds
        # The cluster postmortem finds it where a cluster keeps its data.
        gathered = gather_cluster_dir(str(tmp_path))
        assert gathered["nodes"]["r0"]["dump"] == dump
        rendered = render_cluster_timeline(build_cluster_timeline(gathered))
        assert "checkpoint_switch" in rendered


class TestReplicatedNodes:
    def test_two_nodes_gossip(self, tmp_path):
        with build_node(
            NodeOptions(str(tmp_path / "a"), replica_id="a")
        ) as node_a:
            options_b = NodeOptions(
                str(tmp_path / "b"),
                replica_id="b",
                peers=[f"{node_a.listener.host}:{node_a.port}"],
                sync_interval=600.0,  # manual rounds in the test
            )
            with build_node(options_b) as node_b:
                # node_a learns of b the same way (late peer wiring).
                data_client(node_a).bind("from/a", 1)
                data_client(node_b).bind("from/b", 2)
                moved = node_b.sync_now()
                assert moved >= 1
                client_b = data_client(node_b)
                assert client_b.lookup("from/a") == 1
                # b pushed its own update to a during the same round.
                assert data_client(node_a).lookup("from/b") == 2

    def test_background_sync_loop(self, tmp_path):
        with build_node(
            NodeOptions(str(tmp_path / "a"), replica_id="a")
        ) as node_a:
            options_b = NodeOptions(
                str(tmp_path / "b"),
                replica_id="b",
                peers=[f"{node_a.listener.host}:{node_a.port}"],
                sync_interval=0.05,
            )
            with build_node(options_b) as node_b:
                data_client(node_b).bind("gossip/me", True)
                client_a = data_client(node_a)
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if client_a.exists("gossip/me"):
                        break
                    time.sleep(0.02)
                assert client_a.lookup("gossip/me") is True


class TestColdStart:
    def test_node_starts_before_its_peers(self, tmp_path):
        """A whole-cluster cold start: the first node's peers are down."""
        options = NodeOptions(
            str(tmp_path / "a"),
            replica_id="a",
            peers=["127.0.0.1:1"],  # nothing listens there
            sync_interval=0.05,
        )
        with build_node(options) as node:
            assert node.unreachable_peers == ["127.0.0.1:1"]
            data_client(node).bind("works/anyway", 1)
            assert data_client(node).lookup("works/anyway") == 1

    def test_late_peer_is_picked_up_by_the_loop(self, tmp_path):
        options_a = NodeOptions(
            str(tmp_path / "a"), replica_id="a", sync_interval=600.0
        )
        with build_node(options_a) as node_a:
            address = f"{node_a.listener.host}:{node_a.port}"
            # b configured against a *placeholder* address that is down,
            # plus a's real one appended later through the retry path.
            options_b = NodeOptions(
                str(tmp_path / "b"),
                replica_id="b",
                peers=["127.0.0.1:1", address],
                sync_interval=0.05,
            )
            with build_node(options_b) as node_b:
                data_client(node_b).bind("late/gossip", True)
                client_a = data_client(node_a)
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if client_a.exists("late/gossip"):
                        break
                    time.sleep(0.02)
                assert client_a.lookup("late/gossip") is True
                assert node_b.unreachable_peers == ["127.0.0.1:1"]


class TestParanoidEnquiries:
    def test_mutating_enquiry_caught(self, tmp_path):
        from repro.core import Database, DatabaseError, OperationRegistry
        from repro.storage import LocalFS

        ops = OperationRegistry()
        ops.register("set", lambda root, k, v: root.__setitem__(k, v))
        db = Database(
            LocalFS(str(tmp_path)),
            initial=dict,
            operations=ops,
            paranoid_enquiries=True,
        )
        db.update("set", "a", 1)
        assert db.enquire(lambda root: root["a"]) == 1  # clean read passes

        def sneaky(root):
            root["a"] = 999  # a bug: mutation outside update()
            return root["a"]

        with pytest.raises(DatabaseError, match="mutated"):
            db.enquire(sneaky)


class TestAutoRecover:
    def _seed_and_checkpoint(self, node: Node, count: int = 8) -> None:
        client = data_client(node)
        for i in range(count):
            client.bind(f"svc/app/node{i:02d}", i)
        # Checkpoint past the history: gossip alone can no longer
        # rebuild a blank peer; only snapshot shipping can.
        node.replica.checkpoint()

    def test_blank_node_rebuilds_itself_at_boot(self, tmp_path):
        with build_node(
            NodeOptions(str(tmp_path / "west"), replica_id="west",
                        sync_interval=600.0)
        ) as west:
            self._seed_and_checkpoint(west)
            options = NodeOptions(
                str(tmp_path / "east"),
                replica_id="east",
                peers=[f"{west.listener.host}:{west.port}"],
                sync_interval=600.0,  # boot-time recovery, not the loop
                auto_recover=True,
            )
            with build_node(options) as east:
                client = data_client(east)
                assert client.count() == 8
                assert client.lookup("svc/app/node03") == 3
                assert client.summary() == data_client(west).summary()
                assert east.replica.db.health == "healthy"

    def test_blank_node_without_the_flag_stays_empty(self, tmp_path):
        with build_node(
            NodeOptions(str(tmp_path / "west"), replica_id="west",
                        sync_interval=600.0)
        ) as west:
            self._seed_and_checkpoint(west)
            options = NodeOptions(
                str(tmp_path / "east"),
                replica_id="east",
                peers=[f"{west.listener.host}:{west.port}"],
                sync_interval=600.0,
            )
            with build_node(options) as east:
                assert data_client(east).count() == 0
