#!/usr/bin/env python3
"""The paper's worked example: a name server, served over real TCP RPC.

Starts a name server on a real directory, exports it through the RPC
package on a TCP socket, then drives it from a generated client stub:
binds, lookups, browsing, typed remote errors, and a crash-free restart.
"""

import os
import tempfile

from repro import (
    NAMESERVER_INTERFACE,
    EventLoopServer,
    NameNotFound,
    NameServer,
    RemoteNameServer,
    RpcServer,
    TcpTransport,
)


def main() -> None:
    from repro.storage import LocalFS

    directory = os.path.join(tempfile.gettempdir(), "smalldb-nameserver")
    server = NameServer(LocalFS(directory))

    rpc = RpcServer()
    rpc.export(NAMESERVER_INTERFACE, server)

    with EventLoopServer(rpc) as listener:
        print(f"name server listening on {listener.host}:{listener.port}")
        transport = TcpTransport(listener.host, listener.port)
        remote = RemoteNameServer(transport)

        # Bind a little org tree: values are arbitrary typed structures.
        remote.bind("com/dec/src/printer3", {"host": "src-gw", "port": 515})
        remote.bind("com/dec/src/fileserver", {"host": "juniper", "volumes": ["a", "b"]})
        remote.bind("com/cmu/cs/jones", ("Michael B. Jones", "Wean Hall"))
        print(f"bound 3 names; total now {remote.count()}")

        # Enquiries and browsing.
        print("lookup printer3:", remote.lookup("com/dec/src/printer3"))
        print("browse com/dec/src:", remote.list_dir("com/dec/src"))
        print("subtree com:", remote.read_subtree("com"))

        # Typed errors cross the wire as themselves.
        try:
            remote.lookup("com/dec/src/teleporter")
        except NameNotFound as exc:
            print(f"remote error, typed: {exc}")

        # Replace a whole subtree in one single-shot transaction.
        remote.write_subtree(
            "com/dec/src",
            [("printer3", {"host": "src-gw2", "port": 515}), ("scanner1", {})],
        )
        print("after write_subtree:", remote.list_dir("com/dec/src"))

        transport.close()

    # Restart: everything recovered from checkpoint + log.
    server.close()
    reopened = NameServer(LocalFS(directory))
    print(f"after restart: {reopened.count()} names, "
          f"printer3 -> {reopened.lookup('com/dec/src/printer3')}")
    stats = reopened.stats.snapshot()
    print(f"restart replayed {stats['entries_replayed']} log entries")
    reopened.checkpoint()
    reopened.close()


if __name__ == "__main__":
    main()
