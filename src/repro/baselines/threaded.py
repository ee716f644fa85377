"""A thread-per-connection TCP front end: the rival of the event loop.

This is the shape :class:`repro.rpc.EventLoopServer` replaced, kept only
as the comparator for E5d (connection scaling under reconnect storms)
and E16b (group commit through a socket front end).  It keeps exactly
what those experiments measure: one accept thread behind the default
listen backlog, and one ``Thread.start()`` per accepted connection, each
running blocking receive → dispatch → send on the shared wire format.
It carries no flight recorder, counters or listener-death bookkeeping,
and no node serves through it.

>>> with ThreadPerConnectionServer(rpc_server) as srv:
...     transport = TcpTransport(srv.host, srv.port)
"""

from __future__ import annotations

import socket
import threading

from repro.rpc.errors import TransportError
from repro.rpc.server import RpcServer
from repro.rpc.transport import disable_nagle, recv_frame, send_frame


class ThreadPerConnectionServer:
    """Serves an :class:`RpcServer` with one thread per connection."""

    def __init__(self, server: RpcServer, host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)

    def start(self) -> "ThreadPerConnectionServer":
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # stop() shut the listener down
            disable_nagle(conn)
            with self._lock:
                self._connections.add(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            while True:
                send_frame(conn, self.server.dispatch(recv_frame(conn)))
        except (OSError, TransportError):
            pass  # the client hung up, sent a bad frame, or stop() ran
        finally:
            with self._lock:
                self._connections.discard(conn)
            conn.close()

    def stop(self) -> None:
        # shutdown() wakes a thread parked in accept() or recv(); a bare
        # close() from another thread does not.
        with self._lock:
            for sock in (self._listener, *self._connections):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._listener.close()
        self._accept_thread.join(5.0)

    def __enter__(self) -> "ThreadPerConnectionServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
