"""Transports: how request bytes reach a server and responses return.

Two implementations behind one tiny interface:

* :class:`LoopbackTransport` — in-process, deterministic, with a modelled
  network round trip charged to the simulation clock.  The paper's
  measured RPC round trip for name server operations was ~8 ms; the
  default :class:`NetworkModel` reproduces that, which is how E6 turns
  5 ms enquiries into 13 ms remote enquiries.

* :class:`TcpTransport` / :class:`TcpServerThread` — real sockets with
  length-prefixed frames and a thread-per-connection server, showing the
  same stubs carry a real network.

Failure semantics are part of the interface: a failed call leaves a
:class:`TcpTransport` *disconnected but usable* — the next call
reconnects lazily — and every :class:`~repro.rpc.errors.TransportError`
carries ``maybe_delivered`` so the retry layer knows whether the request
could have reached the server.  Only an explicit :meth:`Transport.close`
is terminal (subsequent calls raise
:class:`~repro.rpc.errors.TransportClosed`).
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass

from repro.rpc.errors import TransportClosed, TransportError
from repro.rpc.server import RpcServer
from repro.sim.clock import Clock


class Transport:
    """Carries one request and returns the response bytes."""

    def call(self, request: bytes) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying connection (idempotent)."""


@dataclass(frozen=True)
class NetworkModel:
    """Round-trip cost model for the loopback transport."""

    #: fixed round-trip time, seconds (the paper's ~8 ms)
    round_trip_seconds: float = 0.008
    #: marginal cost per payload byte in either direction
    seconds_per_byte: float = 0.0

    def one_way(self, nbytes: int) -> float:
        return self.round_trip_seconds / 2.0 + nbytes * self.seconds_per_byte


#: Calibrated to the paper: "Our round-trip network communication costs are
#: about 8 msecs for name server operations."
LAN_1987 = NetworkModel(round_trip_seconds=0.008)

#: Free network for logic-only tests.
NULL_NETWORK = NetworkModel(round_trip_seconds=0.0)


class LoopbackTransport(Transport):
    """Calls an in-process :class:`RpcServer`, charging network time."""

    def __init__(
        self,
        server: RpcServer,
        clock: Clock | None = None,
        network: NetworkModel = NULL_NETWORK,
    ) -> None:
        self.server = server
        self.clock = clock
        self.network = network
        self._closed = False

    def call(self, request: bytes) -> bytes:
        if self._closed:
            raise TransportClosed()
        if self.clock is not None:
            self.clock.advance(self.network.one_way(len(request)))
        response = self.server.dispatch(request)
        if self.clock is not None:
            self.clock.advance(self.network.one_way(len(response)))
        return response

    def close(self) -> None:
        self._closed = True


# -- TCP ------------------------------------------------------------------------

_FRAME = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024


def disable_nagle(sock: socket.socket) -> None:
    """Set ``TCP_NODELAY``: frames are small and already whole.

    Every frame goes out in one ``sendall``, so Nagle's algorithm has
    nothing to coalesce; left on, a pipelining client's second small
    frame waits for the first one's (possibly delayed) ACK.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # the peer is already gone; the next read or write says so


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_FRAME.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, length: int) -> bytes:
    chunks = []
    got = 0
    while got < length:
        piece = sock.recv(length - got)
        if not piece:
            raise TransportError("connection closed mid-frame")
        chunks.append(piece)
        got += len(piece)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = _FRAME.unpack(_recv_exact(sock, _FRAME.size))
    if length > _MAX_FRAME:
        raise TransportError(f"frame of {length} bytes exceeds limit")
    return _recv_exact(sock, length)


class TcpServerThread:
    """A threaded TCP front end for an :class:`RpcServer`.

    A malformed frame (garbage length prefix, truncated payload) or any
    per-connection failure closes *that* connection, counted and, given a
    flight recorder, recorded; the accept loop and other connections are
    unaffected.  ``stop()``
    closes the listener and every open connection and joins all threads,
    so a stopped server leaks nothing.

    >>> server_thread = TcpServerThread(rpc_server, port=0)
    >>> server_thread.start()
    >>> transport = TcpTransport("127.0.0.1", server_thread.port)
    """

    def __init__(
        self,
        server: RpcServer,
        host: str = "127.0.0.1",
        port: int = 0,
        flight=None,
    ):
        self.server = server
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._state_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        #: optional :class:`~repro.obs.flight.FlightRecorder` receiving a
        #: black-box event if the listener dies outside of ``stop()`` or a
        #: connection is dropped for cause
        self.flight = flight
        # Tallies live in the server's metrics registry so concurrent
        # worker threads increment atomically (the registry takes a lock
        # per inc) instead of racing a bare ``+= 1``.
        self._connection_errors = server.registry.counter(
            "rpc_server_connection_errors_total",
            "Connections dropped for malformed frames or dispatch bugs.",
        )
        self._listener_failures = server.registry.counter(
            "rpc_server_listener_failures_total",
            "Unexpected listener/accept-loop deaths (not clean stops).",
        )
        #: set when the accept loop died without stop() being called —
        #: the server looks alive but can accept nothing
        self.listener_failed = False

    @property
    def connection_errors(self) -> int:
        return int(self._connection_errors.value)

    def start(self) -> "TcpServerThread":
        if self._accept_thread is not None:  # idempotent
            return self
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _note_listener_failure(self, exc: OSError) -> None:
        """The loud-death contract: an accept loop must never die quietly."""
        self.listener_failed = True
        self._listener_failures.inc()
        if self.flight is not None:
            self.flight.record(
                "rpc_listener_failed",
                host=self.host,
                port=self.port,
                error=repr(exc),
                server_model="threaded",
            )

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError as exc:
                if not self._stopping.is_set():
                    self._note_listener_failure(exc)
                return  # listener closed
            disable_nagle(conn)
            with self._state_lock:
                if self._stopping.is_set():
                    conn.close()
                    return
                self._connections.add(conn)
                self._workers = [w for w in self._workers if w.is_alive()]
                worker = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                self._workers.append(worker)
            worker.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                while not self._stopping.is_set():
                    try:
                        request = _recv_frame(conn)
                    except TransportError as exc:
                        # Garbage length prefix / truncated frame / clean
                        # disconnect: drop this connection only.
                        if "closed mid-frame" not in str(exc):
                            self._connection_errors.inc()
                            if self.flight is not None:
                                self.flight.record(
                                    "rpc_connection_dropped", reason=str(exc)
                                )
                        return
                    except OSError:
                        return
                    try:
                        response = self.server.dispatch(request)
                        _send_frame(conn, response)
                    except OSError:
                        return
                    except Exception as exc:
                        # dispatch() returns error frames for bad input, so
                        # reaching here is a server bug — record it but keep
                        # the process (and the accept loop) alive.
                        self._connection_errors.inc()
                        if self.flight is not None:
                            self.flight.record(
                                "rpc_dispatch_failed", error=repr(exc)
                            )
                        return
        finally:
            with self._state_lock:
                self._connections.discard(conn)

    def stop(self, join_timeout: float = 5.0) -> None:
        self._stopping.set()
        # A blocked accept() is not reliably woken by closing the listener
        # from another thread; poke it with a throwaway connection first.
        try:
            socket.create_connection((self.host, self.port), timeout=1).close()
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._state_lock:
            connections = list(self._connections)
            workers = list(self._workers)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(join_timeout)
        for worker in workers:
            worker.join(join_timeout)

    def __enter__(self) -> "TcpServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class TcpTransport(Transport):
    """A client connection to a :class:`TcpServerThread`, self-healing.

    The connection is established eagerly (so misconfiguration fails
    fast) but is *not* load-bearing: a failed call tears the socket down
    and the next call reconnects, instead of one ``OSError`` bricking
    the transport forever.  Only :meth:`close` is final.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._closed = False
        self._lock = threading.Lock()
        with self._lock:
            self._connect()

    @property
    def connected(self) -> bool:
        with self._lock:
            return self._sock is not None

    @property
    def closed(self) -> bool:
        return self._closed

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            disable_nagle(self._sock)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {self.host}:{self.port}: {exc}",
                maybe_delivered=False,
            ) from exc

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def call(self, request: bytes) -> bytes:
        with self._lock:  # one outstanding call per connection
            if self._closed:
                raise TransportClosed(
                    f"transport to {self.host}:{self.port} is closed"
                )
            if self._sock is None:
                self._connect()  # lazy reconnect after an earlier failure
            sent = False
            try:
                _send_frame(self._sock, request)
                sent = True
                return _recv_frame(self._sock)
            except (OSError, TransportError) as exc:
                self._teardown()
                raise TransportError(
                    f"transport failed: {exc}", maybe_delivered=sent
                ) from exc

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._teardown()
