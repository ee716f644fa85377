"""Client-side access to a remote name server.

``RemoteNameServer`` wraps the generated RPC proxy with the same Python
API as a local :class:`~repro.nameserver.server.NameServer` — paths may be
``"a/b/c"`` strings or tuples, values are arbitrary pickleable objects —
so application code cannot tell a local instance from a remote one (the
paper's clients likewise saw only strongly typed procedures).
"""

from __future__ import annotations

from repro.nameserver.server import NAMESERVER_INTERFACE
from repro.nameserver.tree import parse_path
from repro.rpc import RpcClient, Transport


class RemoteNameServer:
    """A typed facade over the generated name server stubs.

    Keyword options (``retry``, ``clock``, ``client_id``, ``rng``) pass
    through to :class:`~repro.rpc.client.RpcClient`, so a remote name
    server gets retransmission with at-most-once semantics by default.
    """

    def __init__(
        self,
        transport: Transport,
        interface=None,
        **client_options: object,
    ) -> None:
        # ``interface`` lets wire-compatible extensions (the cluster's
        # shard interface) reuse this facade with extra methods/errors.
        self._client = RpcClient(
            interface if interface is not None else NAMESERVER_INTERFACE,
            transport,
            **client_options,
        )
        self._proxy = self._client.proxy()

    # -- enquiries -----------------------------------------------------------

    def lookup(self, path) -> object:
        return self._proxy.lookup(list(parse_path(path)))

    def exists(self, path) -> bool:
        return self._proxy.exists(list(parse_path(path)))

    def list_dir(self, path=()) -> list[str]:
        parsed = list(parse_path(path)) if path else []
        return self._proxy.list_dir(parsed)

    def read_subtree(self, path=()) -> list:
        parsed = list(parse_path(path)) if path else []
        return self._proxy.read_subtree(parsed)

    def count(self) -> int:
        return self._proxy.count()

    def glob(self, pattern) -> list:
        from repro.nameserver.browse import parse_pattern

        return self._proxy.glob(list(parse_pattern(pattern)))

    # -- updates -------------------------------------------------------------

    def bind(self, path, value, exclusive: bool = False) -> None:
        self._proxy.bind(list(parse_path(path)), value, bool(exclusive))

    def unbind(self, path) -> None:
        self._proxy.unbind(list(parse_path(path)))

    def unbind_subtree(self, path) -> None:
        self._proxy.unbind_subtree(list(parse_path(path)))

    def write_subtree(self, path, entries) -> None:
        canonical = [(list(parse_path(rel)), value) for rel, value in entries]
        self._proxy.write_subtree(list(parse_path(path)), canonical)

    # -- replication hooks ------------------------------------------------------

    def summary(self) -> dict[str, int]:
        return self._proxy.summary()

    def updates_since(self, vector: dict[str, int]) -> list:
        return self._proxy.updates_since(dict(vector))

    def apply_remote(self, records: list) -> int:
        return self._proxy.apply_remote(records)

    # -- replica repair hooks ----------------------------------------------------

    def snapshot_manifest(self, fresh: bool = False) -> dict:
        return self._proxy.snapshot_manifest(bool(fresh))

    def snapshot_chunk(self, version: int, offset: int, length: int) -> dict:
        return self._proxy.snapshot_chunk(
            int(version), int(offset), int(length)
        )

    def tree_digest(self, path=()) -> dict:
        parsed = list(parse_path(path)) if path else []
        return self._proxy.tree_digest(parsed)

    def read_leaves(self, path=()) -> list:
        parsed = list(parse_path(path)) if path else []
        return self._proxy.read_leaves(parsed)

    def repair_leaves(self, leaves: list) -> int:
        canonical = [
            (list(parse_path(path)), value, int(lamport), str(origin),
             bool(deleted))
            for path, value, lamport, origin, deleted in leaves
        ]
        return self._proxy.repair_leaves(canonical)

    # -- sharding hooks ----------------------------------------------------------

    def components(self) -> list[str]:
        return self._proxy.components()

    def purge_components(self, components: list[str]) -> int:
        return self._proxy.purge_components([str(c) for c in components])

    # -- lifecycle ----------------------------------------------------------------

    @property
    def calls_made(self) -> int:
        return self._client.calls_made

    @property
    def stats(self):
        """The underlying :class:`~repro.rpc.retry.RpcClientStats`."""
        return self._client.stats

    def close(self) -> None:
        self._client.close()
