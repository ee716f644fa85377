"""Transports: how request bytes reach a server and responses return.

Two implementations behind one tiny interface:

* :class:`LoopbackTransport` — in-process, deterministic, with a modelled
  network round trip charged to the simulation clock.  The paper's
  measured RPC round trip for name server operations was ~8 ms; the
  default :class:`NetworkModel` reproduces that, which is how E6 turns
  5 ms enquiries into 13 ms remote enquiries.

* :class:`TcpTransport` — real sockets with length-prefixed frames, the
  client end of :class:`~repro.rpc.eventloop.EventLoopServer`, showing
  the same stubs carry a real network.

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


def send_frame(sock: socket.socket, payload: bytes) -> None:
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


def recv_frame(sock: socket.socket) -> bytes:
    (length,) = _FRAME.unpack(_recv_exact(sock, _FRAME.size))
    if length > _MAX_FRAME:
        raise TransportError(f"frame of {length} bytes exceeds limit")
    return _recv_exact(sock, length)


class TcpTransport(Transport):
    """A client connection to a TCP front end, self-healing.

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
                send_frame(self._sock, request)
                sent = True
                return recv_frame(self._sock)
            except (OSError, TransportError) as exc:
                self._teardown()
                raise TransportError(
                    f"transport failed: {exc}", maybe_delivered=sent
                ) from exc

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._teardown()
