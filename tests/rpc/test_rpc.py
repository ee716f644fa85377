"""End-to-end RPC: interfaces, server dispatch, proxies, transports."""

from __future__ import annotations

import threading

import pytest

from repro.rpc import (
    BadRequest,
    EventLoopServer,
    Int,
    Interface,
    LAN_1987,
    ListOf,
    LoopbackTransport,
    OptionalOf,
    RemoteError,
    RpcClient,
    RpcServer,
    Str,
    TcpTransport,
    TransportError,
    Void,
    connect,
)
from repro.rpc.interface import encode_request
from repro.sim import SimClock


class CustomFault(Exception):
    pass


@pytest.fixture
def calc_interface() -> Interface:
    calc = Interface("Calculator")
    calc.method("add", params=[("a", Int), ("b", Int)], returns=Int)
    calc.method("head", params=[("items", ListOf(Str))], returns=OptionalOf(Str))
    calc.method("fail", params=[("message", Str)], returns=Void)
    calc.error(CustomFault)
    return calc


class CalcImpl:
    def add(self, a, b):
        return a + b

    def head(self, items):
        return items[0] if items else None

    def fail(self, message):
        raise CustomFault(message)


@pytest.fixture
def server(calc_interface) -> RpcServer:
    server = RpcServer()
    server.export(calc_interface, CalcImpl())
    return server


@pytest.fixture
def proxy(calc_interface, server):
    return connect(calc_interface, LoopbackTransport(server))


class TestInterface:
    def test_duplicate_method_rejected(self, calc_interface):
        with pytest.raises(ValueError):
            calc_interface.method("add")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Interface("")

    def test_wire_name_includes_version(self):
        assert Interface("Svc", version=3).wire_name == "Svc/3"

    def test_describe_lists_signatures(self, calc_interface):
        text = calc_interface.describe()
        assert "add(a: int, b: int) -> int" in text

    def test_export_checks_implementation(self, calc_interface):
        class Incomplete:
            def add(self, a, b):
                return a + b

        with pytest.raises(TypeError, match="head"):
            RpcServer().export(calc_interface, Incomplete())


class TestCalls:
    def test_basic_call(self, proxy):
        assert proxy.add(2, 3) == 5

    def test_optional_result(self, proxy):
        assert proxy.head(["x", "y"]) == "x"
        assert proxy.head([]) is None

    def test_registered_exception_crosses_wire(self, proxy):
        with pytest.raises(CustomFault, match="boom"):
            proxy.fail("boom")

    def test_unregistered_exception_becomes_remote_error(self, calc_interface):
        class Flaky:
            def add(self, a, b):
                raise KeyError("not registered")

            def head(self, items):
                return None

            def fail(self, message):
                pass

        server = RpcServer()
        server.export(calc_interface, Flaky())
        proxy = connect(calc_interface, LoopbackTransport(server))
        with pytest.raises(RemoteError, match="KeyError"):
            proxy.add(1, 2)

    def test_unknown_interface(self, calc_interface):
        empty_server = RpcServer()
        proxy = connect(calc_interface, LoopbackTransport(empty_server))
        with pytest.raises(BadRequest, match="Calculator"):
            proxy.add(1, 2)

    def test_unknown_method_in_request(self, calc_interface, server):
        other = Interface("Calculator")  # same wire name, more methods
        other.method("mystery", returns=Void)
        client = RpcClient(other, LoopbackTransport(server))
        with pytest.raises(BadRequest, match="mystery"):
            client.call("mystery")

    def test_malformed_request_bytes(self, server):
        response = server.dispatch(b"\xff\xfe garbage")
        assert response[0] == 2  # STATUS_RPC_ERROR

    def test_trailing_request_bytes_rejected(self, calc_interface, server):
        request = encode_request(calc_interface, "add", (1, 2)) + b"extra"
        response = server.dispatch(request)
        assert response[0] == 2

    def test_calls_served_counter(self, proxy, server):
        proxy.add(1, 1)
        proxy.add(2, 2)
        assert server.calls_served == 2

    def test_proxy_repr_and_stub_metadata(self, proxy):
        assert "Calculator" in repr(proxy)
        assert proxy.add.__name__ == "add"
        assert "-> int" in proxy.add.__doc__


class TestLoopbackTiming:
    def test_network_model_charged(self, calc_interface, server):
        clock = SimClock()
        proxy = connect(
            calc_interface,
            LoopbackTransport(server, clock=clock, network=LAN_1987),
        )
        proxy.add(1, 2)
        assert clock.now() == pytest.approx(0.008, abs=1e-6)

    def test_closed_transport_rejected(self, calc_interface, server):
        transport = LoopbackTransport(server)
        transport.close()
        client = RpcClient(calc_interface, transport)
        with pytest.raises(TransportError):
            client.call("add", 1, 2)


class TestTcp:
    def test_call_over_tcp(self, calc_interface, server):
        with EventLoopServer(server) as srv:
            transport = TcpTransport(srv.host, srv.port)
            try:
                proxy = connect(calc_interface, transport)
                assert proxy.add(20, 22) == 42
                assert proxy.head([]) is None
                with pytest.raises(CustomFault):
                    proxy.fail("over tcp")
            finally:
                transport.close()

    def test_concurrent_clients(self, calc_interface, server):
        with EventLoopServer(server) as srv:
            results = []
            errors = []

            def worker(n):
                transport = TcpTransport(srv.host, srv.port)
                try:
                    proxy = connect(calc_interface, transport)
                    for i in range(20):
                        results.append(proxy.add(n, i))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)
                finally:
                    transport.close()

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not errors
            assert len(results) == 80

    def test_connect_refused(self):
        with pytest.raises(TransportError):
            TcpTransport("127.0.0.1", 1)  # nothing listens on port 1
