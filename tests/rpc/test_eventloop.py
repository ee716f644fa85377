"""The event-driven TCP front end: pipelining, fairness, backpressure.

The shared transport contract (reconnects, malformed frames, clean stop,
listener death) is covered by the parametrized suite in
``test_tcp_robustness.py``; this file tests what only the event loop
promises — multiple in-flight frames per connection answered in request
order, slow calls not starving other connections, bounded buffering
under flood, and declared enquiries run on the loop thread only when
that cannot park it.

Every socket and every wait has a timeout of a few seconds: a loop that
stalls fails the test, it does not hang the job.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading

import pytest

from repro.obs import FlightRecorder
from repro.pickles.wire import WireReader
from repro.rpc import (
    EventLoopServer,
    Int,
    Interface,
    LoopbackTransport,
    NO_RETRY,
    RpcClient,
    RpcServer,
    TcpTransport,
    Void,
)
from repro.rpc.interface import STATUS_OK, encode_request
from repro.sim import SimClock


@pytest.fixture
def echo_interface() -> Interface:
    iface = Interface("Echo")
    iface.method("double", params=[("n", Int)], returns=Int)
    return iface


def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def recv_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "peer closed mid-frame"
        data += chunk
    return data


def recv_reply(sock: socket.socket) -> bytes:
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    return recv_exact(sock, length)


def decode_int_result(spec, reply: bytes) -> int:
    assert reply[0] == STATUS_OK, reply
    return spec.decode_result(WireReader(reply, 1))


class TestPipelining:
    def test_many_inflight_frames_answered_in_request_order(
        self, echo_interface
    ):
        class Impl:
            def double(self, n):
                return n * 2

        rpc = RpcServer()
        rpc.export(echo_interface, Impl())
        spec = echo_interface.spec("double")
        count = 50
        with EventLoopServer(rpc) as srv:
            sock = socket.create_connection((srv.host, srv.port), timeout=5)
            try:
                # All 50 requests leave before any reply is read: the
                # server must hold them in flight and answer in order.
                blob = b"".join(
                    frame(encode_request(echo_interface, "double", (n,)))
                    for n in range(count)
                )
                sock.sendall(blob)
                results = [
                    decode_int_result(spec, recv_reply(sock))
                    for _ in range(count)
                ]
            finally:
                sock.close()
        assert results == [2 * n for n in range(count)]
        depth = rpc.registry.get("rpc_server_pipeline_depth")
        assert depth.labels().count > 0  # the depth histogram saw the burst

    def test_out_of_order_completion_still_writes_in_order(
        self, echo_interface
    ):
        """The first request stalls in its worker while later ones finish;
        replies must still come back in request order."""
        release = threading.Event()
        first_started = threading.Event()

        class Stall:
            def double(self, n):
                if n == 0:
                    first_started.set()
                    assert release.wait(5)
                return n * 2

        rpc = RpcServer()
        rpc.export(echo_interface, Stall())
        spec = echo_interface.spec("double")
        with EventLoopServer(rpc) as srv:
            sock = socket.create_connection((srv.host, srv.port), timeout=5)
            try:
                for n in range(4):
                    sock.sendall(
                        frame(encode_request(echo_interface, "double", (n,)))
                    )
                assert first_started.wait(5)
                # requests 1..3 complete while 0 is stalled; nothing may
                # be written until 0 finishes
                sock.settimeout(0.3)
                with pytest.raises(TimeoutError):
                    sock.recv(1)
                release.set()
                sock.settimeout(5)
                results = [
                    decode_int_result(spec, recv_reply(sock)) for _ in range(4)
                ]
            finally:
                sock.close()
        assert results == [0, 2, 4, 6]


class TestFairness:
    def test_slow_call_does_not_block_other_connections(self):
        iface = Interface("Mixed")
        iface.method("block", params=[], returns=Void)
        iface.method("fast", params=[("n", Int)], returns=Int)
        release = threading.Event()
        blocked = threading.Event()

        class Impl:
            def block(self):
                blocked.set()
                assert release.wait(5)

            def fast(self, n):
                return n + 1

        rpc = RpcServer()
        rpc.export(iface, Impl())
        with EventLoopServer(rpc) as srv:
            slow_sock = socket.create_connection(
                (srv.host, srv.port), timeout=5
            )
            transport = TcpTransport(srv.host, srv.port)
            try:
                slow_sock.sendall(frame(encode_request(iface, "block", ())))
                assert blocked.wait(5)
                # The loop is free: a second connection gets served while
                # the first occupies a dispatch worker.
                client = RpcClient(
                    iface, transport, retry=NO_RETRY, clock=SimClock()
                )
                assert client.call("fast", 41) == 42
                release.set()
                assert recv_reply(slow_sock)[0] == STATUS_OK
            finally:
                release.set()
                transport.close()
                slow_sock.close()


class TestBackpressure:
    def test_flood_beyond_pipeline_cap_still_all_answered(
        self, echo_interface
    ):
        class Impl:
            def double(self, n):
                return n * 2

        rpc = RpcServer()
        rpc.export(echo_interface, Impl())
        spec = echo_interface.spec("double")
        count = 100
        with EventLoopServer(rpc, max_pipeline=4) as srv:
            sock = socket.create_connection((srv.host, srv.port), timeout=5)
            try:
                sender_error = []

                def send_all():
                    try:
                        for n in range(count):
                            sock.sendall(
                                frame(
                                    encode_request(
                                        echo_interface, "double", (n,)
                                    )
                                )
                            )
                    except OSError as exc:  # pragma: no cover - diagnostics
                        sender_error.append(exc)

                sender = threading.Thread(target=send_all)
                sender.start()
                results = [
                    decode_int_result(spec, recv_reply(sock))
                    for _ in range(count)
                ]
                sender.join(5)
            finally:
                sock.close()
        assert not sender_error
        assert results == [2 * n for n in range(count)]
        # the cap actually engaged: reads were paused at least once
        overloads = rpc.registry.get("rpc_server_overload_pauses_total")
        assert int(overloads.value) >= 1

    def test_connection_gauge_tracks_opens_and_closes(self, echo_interface):
        class Impl:
            def double(self, n):
                return n * 2

        rpc = RpcServer()
        rpc.export(echo_interface, Impl())
        with EventLoopServer(rpc) as srv:
            gauge = rpc.registry.get("rpc_server_connections")
            assert gauge.value == 0
            transports = [
                TcpTransport(srv.host, srv.port) for _ in range(3)
            ]
            clients = [
                RpcClient(
                    echo_interface, t, retry=NO_RETRY, clock=SimClock()
                )
                for t in transports
            ]
            for n, client in enumerate(clients):
                assert client.call("double", n) == 2 * n
            assert gauge.value == 3
            for transport in transports:
                transport.close()
            _wait_until(lambda: gauge.value == 0)
            assert gauge.value == 0
        assert gauge.value == 0


class Missing(Exception):
    """A declared application error of the ``Store`` test interface."""


def store_interface() -> Interface:
    iface = Interface("Store")
    iface.method(
        "get", params=[("n", Int)], returns=Int, bounded_enquiry=True
    )
    iface.method("scan", params=[("n", Int)], returns=Int)  # undeclared read
    iface.method("put", params=[("n", Int)], returns=Int)
    iface.error(Missing)
    return iface


class Store:
    """Records which thread ran each call; ``put`` and ``scan`` park."""

    def __init__(self) -> None:
        self.ran_on: list[tuple[str, int, str]] = []
        self.parked = threading.Event()
        self.release = threading.Event()

    def _note(self, method: str, n: int) -> None:
        self.ran_on.append((method, n, threading.current_thread().name))

    def threads(self, method: str) -> list[str]:
        return [thread for m, _n, thread in self.ran_on if m == method]

    def get(self, n):
        self._note("get", n)
        if n == -1:
            raise Missing("nothing bound at -1")
        if n == -2:
            raise RuntimeError("an undeclared failure")
        return n + 1

    def _park(self, method: str, n: int) -> int:
        self._note(method, n)
        self.parked.set()
        assert self.release.wait(5)
        return n

    def scan(self, n):
        return self._park("scan", n)

    def put(self, n):
        return self._park("put", n)


class TestEnquiriesOnTheLoop:
    """A declared ``bounded_enquiry`` runs on the loop thread, and only
    when the loop cannot be parked by it."""

    TIMEOUT = 3

    @pytest.fixture
    def iface(self) -> Interface:
        return store_interface()

    @pytest.fixture
    def store(self):
        store = Store()
        yield store
        store.release.set()  # never leave a worker parked behind a failure

    @pytest.fixture
    def rpc(self, iface, store) -> RpcServer:
        rpc = RpcServer()
        rpc.export(iface, store)
        return rpc

    def connect(self, srv) -> socket.socket:
        return socket.create_connection(
            (srv.host, srv.port), timeout=self.TIMEOUT
        )

    @staticmethod
    def result(iface, method: str, sock) -> int:
        return decode_int_result(iface.spec(method), recv_reply(sock))

    def dispatched(self, rpc, path: str) -> int:
        return int(rpc.registry.get("rpc_server_dispatch_total").labels(path).value)

    def test_enquiry_is_answered_while_the_only_worker_is_parked(
        self, iface, store, rpc
    ):
        """(i) With the whole pool inside a slow update on connection A,
        connection B's enquiry needs no worker."""
        with EventLoopServer(rpc, workers=1) as srv:
            a, b = self.connect(srv), self.connect(srv)
            try:
                a.sendall(frame(encode_request(iface, "put", (7,))))
                assert store.parked.wait(self.TIMEOUT)
                b.sendall(frame(encode_request(iface, "get", (41,))))
                # times out if the enquiry queued behind A
                assert self.result(iface, "get", b) == 42
                store.release.set()
                assert self.result(iface, "put", a) == 7
            finally:
                a.close()
                b.close()
        assert store.threads("get") == ["rpc-eventloop"]
        assert self.dispatched(rpc, "loop") == 1
        assert self.dispatched(rpc, "pool") == 1

    def test_nothing_undeclared_runs_on_the_loop(self, iface, store, rpc):
        """(ii) The reverse guard: a slow read that is *not* declared
        goes to the pool, so it cannot delay another connection."""
        with EventLoopServer(rpc) as srv:
            a, b = self.connect(srv), self.connect(srv)
            try:
                a.sendall(frame(encode_request(iface, "scan", (1,))))
                assert store.parked.wait(self.TIMEOUT)
                b.sendall(frame(encode_request(iface, "get", (1,))))
                assert self.result(iface, "get", b) == 2
                store.release.set()
                assert self.result(iface, "scan", a) == 1
                a.sendall(frame(encode_request(iface, "put", (2,))))
                assert self.result(iface, "put", a) == 2
            finally:
                a.close()
                b.close()
        assert store.threads("get") == ["rpc-eventloop"]
        for method in ("scan", "put"):
            (thread,) = store.threads(method)
            assert thread.startswith("rpc-dispatch-"), (method, thread)
        assert self.dispatched(rpc, "loop") == 1
        assert self.dispatched(rpc, "pool") == 2

    def test_pipelined_enquiry_behind_an_update_goes_to_the_pool(
        self, iface, store, rpc
    ):
        """(iii) With another frame in flight on its connection the
        enquiry keeps the old path, and replies keep request order."""
        with EventLoopServer(rpc) as srv:
            sock = self.connect(srv)
            try:
                sock.sendall(
                    frame(encode_request(iface, "put", (5,)))
                    + frame(encode_request(iface, "get", (5,)))
                )
                _wait_until(lambda: store.threads("get"), self.TIMEOUT)
                store.release.set()
                assert self.result(iface, "put", sock) == 5
                assert self.result(iface, "get", sock) == 6
            finally:
                sock.close()
        (thread,) = store.threads("get")
        assert thread.startswith("rpc-dispatch-"), thread
        assert self.dispatched(rpc, "loop") == 0

    def test_busy_client_lock_sends_the_enquiry_to_the_pool(
        self, iface, store, rpc
    ):
        """(iv) A retry whose original still holds the caller's
        reply-cache lock must wait for it — in a worker, while the loop
        goes on answering everyone else."""
        retry = encode_request(iface, "get", (10,), client_id="c1", seq=1)
        with EventLoopServer(rpc) as srv:
            a, b = self.connect(srv), self.connect(srv)
            try:
                with rpc.reply_cache.client_lock("c1"):
                    a.sendall(frame(retry))
                    _wait_until(
                        lambda: self.dispatched(rpc, "pool") == 1, self.TIMEOUT
                    )
                    b.sendall(frame(encode_request(iface, "get", (20,))))
                    assert self.result(iface, "get", b) == 21
                    assert store.threads("get") == ["rpc-eventloop"]
                assert self.result(iface, "get", a) == 11
            finally:
                a.close()
                b.close()
        waited, = [t for m, n, t in store.ran_on if (m, n) == ("get", 10)]
        assert waited.startswith("rpc-dispatch-"), waited

    @pytest.mark.parametrize(
        "n", [-1, -2], ids=["declared-error", "undeclared-exception"]
    )
    def test_error_frames_are_byte_identical_to_loopback(
        self, iface, store, rpc, n
    ):
        """(v) The inline path words failures exactly as dispatch() does."""
        request = encode_request(iface, "get", (n,))
        expected = LoopbackTransport(rpc).call(request)
        with EventLoopServer(rpc) as srv:
            sock = self.connect(srv)
            try:
                sock.sendall(frame(request))
                assert recv_reply(sock) == expected
            finally:
                sock.close()
        assert store.threads("get")[-1] == "rpc-eventloop"

    def test_duplicate_enquiry_is_answered_from_the_reply_cache(
        self, iface, store, rpc
    ):
        """(vi) At-most-once is the same machinery on the loop."""
        request = frame(encode_request(iface, "get", (3,), client_id="c2", seq=9))
        with EventLoopServer(rpc) as srv:
            sock = self.connect(srv)
            try:
                sock.sendall(request)
                first = recv_reply(sock)
                sock.sendall(request)
                assert recv_reply(sock) == first
            finally:
                sock.close()
        assert decode_int_result(iface.spec("get"), first) == 4
        assert store.threads("get") == ["rpc-eventloop"]  # executed once
        assert rpc.reply_cache.hits == 1
        assert self.dispatched(rpc, "loop") == 2


    def test_loop_and_pool_share_the_reply_cache_under_stress(self, iface):
        """More client threads than cores, a shortened switch interval:
        every call is executed exactly once and answered correctly
        whichever thread served it."""
        class Counting:
            def __init__(self):
                self.calls = 0
                self.lock = threading.Lock()

            def _count(self, n):
                with self.lock:
                    self.calls += 1
                return n + 1

            get = scan = put = _count

        impl = Counting()
        rpc = RpcServer()
        rpc.export(iface, impl)
        threads, rounds, wrong = 6, 150, []

        def client(srv, k):
            transport = TcpTransport(srv.host, srv.port)
            try:
                remote = RpcClient(iface, transport, retry=NO_RETRY, clock=SimClock())
                for n in range(rounds):
                    method = ("get", "put", "get")[n % 3]
                    if remote.call(method, k * rounds + n) != k * rounds + n + 1:
                        wrong.append((k, n))
            except Exception as exc:  # reported below, not swallowed
                wrong.append((k, exc))
            finally:
                transport.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with EventLoopServer(rpc) as srv:
                workers = [
                    threading.Thread(target=client, args=(srv, k))
                    for k in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(30)
                assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert not wrong
        assert impl.calls == threads * rounds
        assert self.dispatched(rpc, "loop") == threads * rounds * 2 // 3
        assert self.dispatched(rpc, "pool") == threads * rounds // 3


class TestDroppedConnections:
    """The loop's failure paths reach the flight recorder, not only the log."""

    @pytest.mark.parametrize(
        "method, path", [("get", "dispatch_enquiry"), ("put", "dispatch")]
    )
    def test_dispatch_bug_closes_only_that_connection(
        self, monkeypatch, method, path
    ):
        """Loop and pool report a server bug the same way: the counter,
        then a drop — and the drop is a flight event."""
        iface = store_interface()
        rpc = RpcServer()
        rpc.export(iface, Store())
        flight = FlightRecorder()
        with EventLoopServer(rpc, flight=flight) as srv:
            good = socket.create_connection((srv.host, srv.port), timeout=3)
            bad = socket.create_connection((srv.host, srv.port), timeout=3)
            try:
                with monkeypatch.context() as patch:

                    def boom(request):
                        raise RuntimeError("dispatch bug")

                    patch.setattr(rpc, path, boom)
                    bad.sendall(frame(encode_request(iface, method, (1,))))
                    assert bad.recv(1) == b""  # closed, nothing written
                assert srv.connection_errors == 1
                good.sendall(frame(encode_request(iface, "get", (1,))))
                reply = recv_reply(good)
                assert decode_int_result(iface.spec("get"), reply) == 2
            finally:
                good.close()
                bad.close()
        (event,) = flight.events("rpc_connection_dropped")
        assert event["fields"]["reason"] == "dispatch failed"
        assert event["fields"]["in_flight"] == 1

    def test_oversize_frame_drop_is_a_flight_event(self):
        rpc = RpcServer()
        flight = FlightRecorder()
        with EventLoopServer(rpc, flight=flight) as srv:
            sock = socket.create_connection((srv.host, srv.port), timeout=3)
            try:
                sock.sendall(struct.pack(">I", 0xFFFFFFFF))
                assert sock.recv(1) == b""
            finally:
                sock.close()
            # a client that simply hangs up is not an event
            socket.create_connection((srv.host, srv.port), timeout=3).close()
            _wait_until(
                lambda: rpc.registry.get("rpc_server_connections").value == 0
            )
        (event,) = flight.events("rpc_connection_dropped")
        assert event["fields"]["reason"] == "oversize frame"
        assert event["fields"]["in_flight"] == 0


def _wait_until(predicate, timeout: float = 5.0) -> None:
    import time

    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
