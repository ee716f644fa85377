"""NameServer behaviour: enquiries, updates, durability, RPC access."""

from __future__ import annotations

import pytest

from repro.nameserver import (
    BadPath,
    NAMESERVER_INTERFACE,
    NameExists,
    NameNotFound,
    NameServer,
    RemoteNameServer,
)
from repro.rpc import LoopbackTransport, RpcServer, TcpServerThread, TcpTransport
from repro.sim import MICROVAX_II


@pytest.fixture
def ns(fs) -> NameServer:
    return NameServer(fs, cost_model=MICROVAX_II)


class TestEnquiries:
    def test_lookup_bound_value(self, ns):
        ns.bind("svc/printer", {"host": "p1"})
        assert ns.lookup("svc/printer") == {"host": "p1"}

    def test_lookup_missing_raises(self, ns):
        with pytest.raises(NameNotFound):
            ns.lookup("ghost")

    def test_exists(self, ns):
        assert not ns.exists("a")
        ns.bind("a", 1)
        assert ns.exists("a")

    def test_list_dir(self, ns):
        ns.bind("dir/b", 1)
        ns.bind("dir/a", 2)
        ns.bind("other", 3)
        assert ns.list_dir("dir") == ["a", "b"]
        assert ns.list_dir() == ["dir", "other"]

    def test_read_subtree(self, ns):
        ns.bind("tree/x", 1)
        ns.bind("tree/sub/y", 2)
        assert ns.read_subtree("tree") == [(["x"], 1), (["sub", "y"], 2)] or (
            ns.read_subtree("tree") == [(["sub", "y"], 2), (["x"], 1)]
        )

    def test_count(self, ns):
        for i in range(7):
            ns.bind(f"n{i}", i)
        assert ns.count() == 7

    def test_value_and_dir_can_share_a_name(self, ns):
        ns.bind("both", "i am a value")
        ns.bind("both/child", "i am below it")
        assert ns.lookup("both") == "i am a value"
        assert ns.list_dir("both") == ["child"]


class TestUpdates:
    def test_bind_overwrites_by_default(self, ns):
        ns.bind("k", "old")
        ns.bind("k", "new")
        assert ns.lookup("k") == "new"

    def test_exclusive_bind_conflicts(self, ns):
        ns.bind("k", "v")
        with pytest.raises(NameExists):
            ns.bind("k", "other", exclusive=True)
        assert ns.lookup("k") == "v"

    def test_exclusive_bind_allowed_over_tombstone(self, ns):
        ns.bind("k", "v")
        ns.unbind("k")
        ns.bind("k", "again", exclusive=True)
        assert ns.lookup("k") == "again"

    def test_unbind(self, ns):
        ns.bind("k", 1)
        ns.unbind("k")
        assert not ns.exists("k")

    def test_unbind_missing_raises(self, ns):
        with pytest.raises(NameNotFound):
            ns.unbind("ghost")

    def test_unbind_subtree(self, ns):
        ns.bind("app/a", 1)
        ns.bind("app/b/c", 2)
        ns.bind("keep", 3)
        ns.unbind_subtree("app")
        assert ns.count() == 1
        assert ns.list_dir() == ["keep"]

    def test_unbind_subtree_missing_raises(self, ns):
        with pytest.raises(NameNotFound):
            ns.unbind_subtree("ghost")

    def test_write_subtree_replaces(self, ns):
        ns.bind("cfg/old", 1)
        ns.bind("cfg/stay", 2)
        ns.write_subtree("cfg", [("stay", 20), ("fresh", 30)])
        assert ns.read_subtree("cfg") == [(["fresh"], 30), (["stay"], 20)]

    def test_write_subtree_is_one_log_entry(self, ns):
        before = ns.db.stats.log_entries_written
        ns.write_subtree("bulk", [(f"n{i}", i) for i in range(25)])
        assert ns.db.stats.log_entries_written == before + 1

    def test_bad_path_rejected_before_logging(self, ns):
        with pytest.raises(BadPath):
            ns.bind("", 1)
        assert ns.db.stats.log_entries_written == 0


class TestDurability:
    def test_crash_recovery(self, fs, ns):
        ns.bind("a/b", 1)
        ns.bind("a/c", 2)
        ns.unbind("a/b")
        fs.crash()
        recovered = NameServer(fs)
        assert recovered.count() == 1
        assert recovered.lookup("a/c") == 2
        assert not recovered.exists("a/b")

    def test_checkpoint_and_recovery(self, fs, ns):
        ns.bind("pre", 1)
        ns.checkpoint()
        ns.bind("post", 2)
        fs.crash()
        recovered = NameServer(fs)
        assert recovered.lookup("pre") == 1
        assert recovered.lookup("post") == 2

    def test_replication_metadata_survives_restart(self, fs, ns):
        ns.bind("x", 1)
        vector_before = ns.summary()
        fs.crash()
        recovered = NameServer(fs)
        assert recovered.summary() == vector_before
        assert len(recovered.updates_since({})) == 1


class TestRpcAccess:
    @pytest.fixture
    def remote(self, ns):
        rpc = RpcServer()
        rpc.export(NAMESERVER_INTERFACE, ns)
        return RemoteNameServer(LoopbackTransport(rpc))

    def test_remote_bind_lookup(self, remote):
        remote.bind("svc/db", {"port": 5432})
        assert remote.lookup("svc/db") == {"port": 5432}
        assert remote.exists("svc/db")
        assert remote.count() == 1

    def test_remote_browse(self, remote):
        remote.bind("a/x", 1)
        remote.bind("a/y", 2)
        assert remote.list_dir("a") == ["x", "y"]
        assert remote.read_subtree("a") == [(["x"], 1), (["y"], 2)]

    def test_remote_errors_typed(self, remote):
        with pytest.raises(NameNotFound):
            remote.lookup("ghost")
        remote.bind("k", 1)
        with pytest.raises(NameExists):
            remote.bind("k", 2, exclusive=True)
        with pytest.raises(NameNotFound):
            remote.unbind("ghost")

    def test_remote_write_and_unbind_subtree(self, remote):
        remote.write_subtree("zone", [("a", 1), ("b/c", 2)])
        assert remote.count() == 2
        remote.unbind_subtree("zone")
        assert remote.count() == 0

    def test_remote_over_tcp(self, ns):
        rpc = RpcServer()
        rpc.export(NAMESERVER_INTERFACE, ns)
        with TcpServerThread(rpc) as srv:
            remote = RemoteNameServer(TcpTransport(srv.host, srv.port))
            try:
                remote.bind("tcp/name", [1, 2, 3])
                assert remote.lookup("tcp/name") == [1, 2, 3]
            finally:
                remote.close()
