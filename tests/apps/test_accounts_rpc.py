"""The accounts service over RPC with static record marshalling."""

from __future__ import annotations

import pytest

from repro.apps import Account, AccountError, AccountRegistry
from repro.apps.accounts_rpc import (
    ACCOUNTS_INTERFACE,
    AccountService,
    RemoteAccountRegistry,
)
from repro.rpc import EventLoopServer, LoopbackTransport, RpcServer, TcpTransport
from repro.sim import SimClock
from repro.storage import SimFS


@pytest.fixture
def registry() -> AccountRegistry:
    return AccountRegistry(SimFS(clock=SimClock()))


@pytest.fixture
def remote(registry) -> RemoteAccountRegistry:
    rpc = RpcServer()
    rpc.export(ACCOUNTS_INTERFACE, AccountService(registry))
    return RemoteAccountRegistry(LoopbackTransport(rpc))


class TestRemoteAccounts:
    def test_create_and_fetch_typed_record(self, remote):
        uid = remote.create("alice", shell="/bin/csh")
        account = remote.fetch("alice")
        assert isinstance(account, Account)  # a real record, not a dict
        assert account.uid == uid
        assert account.shell == "/bin/csh"
        assert account.groups == []
        assert account.disabled is False

    def test_optional_home_crosses_wire(self, remote):
        remote.create("bob", home="/srv/bob")
        assert remote.fetch("bob").home == "/srv/bob"
        remote.create("carol")  # home=None -> server default
        assert remote.fetch("carol").home == "/home/carol"

    def test_groups_roundtrip(self, remote):
        remote.create("alice")
        remote.create_group("staff")
        remote.add_to_group("staff", "alice")
        assert remote.members_of("staff") == ["alice"]
        assert remote.fetch("alice").groups == ["staff"]
        remote.remove_from_group("staff", "alice")
        assert remote.members_of("staff") == []

    def test_disable_enable(self, remote):
        remote.create("alice")
        remote.disable("alice")
        assert remote.fetch("alice").disabled is True
        remote.enable("alice")
        assert remote.fetch("alice").disabled is False

    def test_typed_errors(self, remote):
        with pytest.raises(AccountError):
            remote.fetch("ghost")
        remote.create("alice")
        with pytest.raises(AccountError):
            remote.create("alice")

    def test_by_uid_and_names(self, remote):
        remote.create("alice")
        remote.create("bob")
        assert remote.names() == ["alice", "bob"]
        assert remote.by_uid(1001) == "bob"

    def test_no_pickles_on_this_wire(self, registry):
        """The record marshalling is static: the encoded request/response
        carries no pickle type tags (sanity check of the mechanism)."""
        registry.create("alice")
        service = AccountService(registry)
        account = service.fetch("alice")
        out = bytearray()
        from repro.apps.accounts_rpc import ACCOUNT_RECORD

        ACCOUNT_RECORD.encoder()(account, out)
        # Static layout: no record tag byte (0x0C) and no class name.
        assert b"apps.Account" not in bytes(out)
        # And it is far more compact than the dynamic pickle of the same.
        from repro.pickles import pickle_write

        assert len(out) < len(pickle_write(account))

    def test_over_real_tcp(self, registry):
        rpc = RpcServer()
        rpc.export(ACCOUNTS_INTERFACE, AccountService(registry))
        with EventLoopServer(rpc) as srv:
            remote = RemoteAccountRegistry(TcpTransport(srv.host, srv.port))
            try:
                remote.create("dave")
                assert remote.fetch("dave").name == "dave"
            finally:
                remote.close()

    def test_updates_durable_behind_rpc(self, remote, registry):
        remote.create("alice")
        fs = registry.db.fs
        fs.crash()
        recovered = AccountRegistry(fs)
        assert recovered.names() == ["alice"]
