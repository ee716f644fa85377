"""TCP transport and server robustness: reconnects, malformed frames,
clean shutdown without thread leaks, through :class:`EventLoopServer`.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.obs import FlightRecorder
from repro.rpc import (
    CallMaybeExecuted,
    EventLoopServer,
    Int,
    Interface,
    NO_RETRY,
    RpcClient,
    RpcServer,
    TcpTransport,
    TransportClosed,
    TransportError,
)
from repro.rpc.interface import encode_request
from repro.sim import SimClock

@pytest.fixture
def echo_interface() -> Interface:
    iface = Interface("Echo")
    iface.method("double", params=[("n", Int)], returns=Int)
    return iface


@pytest.fixture
def server(echo_interface) -> RpcServer:
    class Impl:
        def double(self, n):
            return n * 2

    server = RpcServer()
    server.export(echo_interface, Impl())
    return server


def make_client(echo_interface, transport):
    return RpcClient(
        echo_interface, transport, retry=NO_RETRY, clock=SimClock()
    )


class TestLazyReconnect:
    def test_failed_call_marks_dead_then_reconnects(
        self, echo_interface, server
    ):
        srv = EventLoopServer(server).start()
        port = srv.port
        transport = TcpTransport(srv.host, port)
        client = make_client(echo_interface, transport)
        try:
            assert client.call("double", 21) == 42
            srv.stop()  # kills the established connection
            with pytest.raises((TransportError, CallMaybeExecuted)):
                client.call("double", 1)
            assert not transport.connected  # dead, not bricked
            # a new server appears on the same port; the transport heals
            srv2 = EventLoopServer(server, port=port).start()
            try:
                assert client.call("double", 2) == 4
                assert transport.connected
            finally:
                srv2.stop()
        finally:
            transport.close()

    def test_repeated_failures_keep_raising_cleanly(
        self, echo_interface, server
    ):
        """The seed bug: one OSError bricked the transport forever."""
        srv = EventLoopServer(server).start()
        transport = TcpTransport(srv.host, srv.port)
        client = make_client(echo_interface, transport)
        srv.stop()
        try:
            for _ in range(3):
                with pytest.raises((TransportError, CallMaybeExecuted)) as info:
                    client.call("double", 1)
                assert not isinstance(info.value, TransportClosed)
        finally:
            transport.close()

    def test_use_after_close_is_a_distinct_error(
        self, echo_interface, server
    ):
        with EventLoopServer(server) as srv:
            transport = TcpTransport(srv.host, srv.port)
            transport.close()
            assert transport.closed
            client = make_client(echo_interface, transport)
            with pytest.raises(TransportClosed):
                client.call("double", 1)

    def test_connect_failure_is_definitely_not_delivered(self):
        with pytest.raises(TransportError) as info:
            TcpTransport("127.0.0.1", 1)  # nothing listens on port 1
        assert info.value.maybe_delivered is False


class TestNoDelay:
    def test_both_ends_of_a_connection_disable_nagle(
        self, echo_interface, server
    ):
        """A pipelined small frame must not wait behind Nagle + delayed ACK."""
        srv = EventLoopServer(server).start()
        transport = TcpTransport(srv.host, srv.port)
        try:
            # one round trip, so the server has certainly accepted
            assert make_client(echo_interface, transport).call("double", 4) == 8
            (accepted,) = [conn.sock for conn in srv._connections.values()]
            for sock in (transport._sock, accepted):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            transport.close()
            srv.stop()


class TestMalformedFrames:
    def _raw_connection(self, srv) -> socket.socket:
        return socket.create_connection((srv.host, srv.port), timeout=5)

    def test_garbage_length_prefix_drops_only_that_connection(
        self, echo_interface, server
    ):
        with EventLoopServer(server) as srv:
            evil = self._raw_connection(srv)
            evil.sendall(struct.pack(">I", 2**31 - 1) + b"junk")
            try:
                assert evil.recv(1) == b""  # server closed the connection
            except ConnectionResetError:
                pass  # equally a close, just with unread bytes pending
            evil.close()
            assert srv.connection_errors >= 1
            # the accept loop survived: a well-behaved client still works
            transport = TcpTransport(srv.host, srv.port)
            try:
                client = make_client(echo_interface, transport)
                assert client.call("double", 5) == 10
            finally:
                transport.close()

    def test_truncated_frame_is_quiet_disconnect(
        self, echo_interface, server
    ):
        with EventLoopServer(server) as srv:
            half = self._raw_connection(srv)
            half.sendall(struct.pack(">I", 100) + b"only ten b")
            half.close()  # mid-frame
            transport = TcpTransport(srv.host, srv.port)
            try:
                client = make_client(echo_interface, transport)
                assert client.call("double", 7) == 14
            finally:
                transport.close()

    def test_concurrent_bad_frames_count_atomically(
        self, echo_interface, server
    ):
        """Regression test for the racy ``connection_errors += 1``.

        32 threads each feed the server one garbage length prefix at
        once; a lost update on the bare attribute undercounts, the
        registry-backed counter must reach exactly 32.
        """
        attackers = 32
        with EventLoopServer(server) as srv:
            barrier = threading.Barrier(attackers)

            def attack():
                sock = self._raw_connection(srv)
                barrier.wait(5)
                try:
                    sock.sendall(struct.pack(">I", 2**31 - 1) + b"junk")
                    sock.recv(1)  # wait for the server-side close
                except OSError:
                    pass
                finally:
                    sock.close()

            threads = [
                threading.Thread(target=attack) for _ in range(attackers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            deadline = time.monotonic() + 5
            while (
                srv.connection_errors < attackers
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert srv.connection_errors == attackers
            # and the server still serves a well-behaved client
            transport = TcpTransport(srv.host, srv.port)
            try:
                client = make_client(echo_interface, transport)
                assert client.call("double", 3) == 6
            finally:
                transport.close()


class TestListenerFailure:
    def test_accept_loop_death_is_loud(
        self, echo_interface, server
    ):
        """Regression test: a dying accept loop must not be silent.

        Killing the listening socket behind the server's back makes the
        next accept raise ``OSError`` outside of ``stop()``; the server
        must flag it, count it, and leave a flight-recorder event.
        """
        flight = FlightRecorder()
        srv = EventLoopServer(server, flight=flight).start()
        try:
            assert not srv.listener_failed
            # The failure, injected.  shutdown() before close(): closing
            # alone does not wake a thread already parked in accept().
            try:
                srv._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            srv._listener.close()
            deadline = time.monotonic() + 5
            while not srv.listener_failed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert srv.listener_failed
            counter = server.registry.get("rpc_server_listener_failures_total")
            assert int(counter.value) == 1
            events = flight.events("rpc_listener_failed")
            assert len(events) == 1
            assert set(events[0]["fields"]) == {"host", "port", "error"}
        finally:
            srv.stop()

    def test_clean_stop_is_not_a_failure(self, server):
        srv = EventLoopServer(server).start()
        srv.stop()
        assert not srv.listener_failed
        counter = server.registry.get("rpc_server_listener_failures_total")
        assert int(counter.value) == 0


class TestDispatchBug:
    def test_raising_dispatch_is_a_flight_event_and_a_close(
        self, echo_interface, server, monkeypatch
    ):
        """dispatch() answers bad input with error frames, so a raise is a
        server bug: it must reach the flight recorder, not vanish."""
        flight = FlightRecorder()
        with EventLoopServer(server, flight=flight) as srv:

            def boom(request):
                raise RuntimeError("dispatch bug")

            monkeypatch.setattr(server, "dispatch", boom)
            sock = socket.create_connection((srv.host, srv.port), timeout=5)
            try:
                request = encode_request(echo_interface, "double", (1,))
                sock.sendall(struct.pack(">I", len(request)) + request)
                assert sock.recv(1) == b""  # closed, nothing written
            finally:
                sock.close()
            assert srv.connection_errors == 1
        (event,) = flight.events("rpc_dispatch_failed")
        assert event["fields"]["error"] == "RuntimeError('dispatch bug')"


class TestAtMostOnceOverTcp:
    def test_duplicate_retransmission_executes_once(
        self, echo_interface
    ):
        """The reply cache works through a real TCP front end: a
        byte-identical retransmission is answered from the cache."""

        class Counting:
            def __init__(self):
                self.executions = 0

            def double(self, n):
                self.executions += 1
                return n * 2

        impl = Counting()
        rpc = RpcServer()
        rpc.export(echo_interface, impl)
        request = encode_request(
            echo_interface, "double", (8,), client_id="tcp-amo", seq=1
        )
        frame = struct.pack(">I", len(request)) + request
        with EventLoopServer(rpc) as srv:
            sock = socket.create_connection((srv.host, srv.port), timeout=5)
            try:
                replies = []
                for _ in range(2):  # the call, then its retransmission
                    sock.sendall(frame)
                    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
                    replies.append(_recv_exact(sock, length))
            finally:
                sock.close()
        assert replies[0] == replies[1]
        assert impl.executions == 1
        assert rpc.reply_cache.hits == 1


class TestCleanStop:
    def test_stop_joins_every_thread(
        self, echo_interface, server
    ):
        before = set(threading.enumerate())
        srv = EventLoopServer(server).start()
        transports = [TcpTransport(srv.host, srv.port) for _ in range(3)]
        try:
            for n, transport in enumerate(transports):
                client = make_client(echo_interface, transport)
                assert client.call("double", n) == 2 * n
            assert set(threading.enumerate()) - before  # it did spawn
            srv.stop()
            leaked = [
                t
                for t in threading.enumerate()
                if t not in before and t.is_alive()
            ]
            assert leaked == []
            assert not srv._connections
        finally:
            for transport in transports:
                transport.close()

    def test_stop_is_idempotent(self, server):
        srv = EventLoopServer(server).start()
        srv.stop()
        srv.stop()


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "peer closed mid-frame"
        data += chunk
    return data
