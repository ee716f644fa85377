"""RPC: remote procedure calls with generated stubs and static marshalling.

The paper's clients "interact with our name server through a general
purpose remote procedure call mechanism, well integrated into our
programming language", with automatically generated marshalling for
statically typed values.  This package reproduces that: declare an
:class:`Interface`, export an implementation through :class:`RpcServer`,
and :func:`connect` hands back a generated proxy.

The paper further leans on RPC *semantics* — the call either executes or
raises — which this package provides over a faulty network: clients
number their calls and retransmit with jittered backoff
(:class:`~repro.rpc.retry.RetryPolicy`), the server answers recognised
duplicates from a per-client :class:`~repro.rpc.server.ReplyCache`
instead of re-executing (at-most-once), and the one irreducible
ambiguity is surfaced honestly as :class:`CallMaybeExecuted`.  The
:mod:`~repro.rpc.faults` module makes every network failure mode
deterministically reachable for the sweep in :mod:`repro.sim.netsweep`.

>>> from repro.rpc import Interface, Int, RpcServer, LoopbackTransport, connect
>>> calc = Interface("Calculator")
>>> _ = calc.method("add", params=[("a", Int), ("b", Int)], returns=Int)
>>> class Impl:
...     def add(self, a, b):
...         return a + b
>>> server = RpcServer()
>>> server.export(calc, Impl())
>>> proxy = connect(calc, LoopbackTransport(server))
>>> proxy.add(2, 3)
5
"""

from repro.rpc.client import Proxy, RpcClient, connect
from repro.rpc.eventloop import EventLoopServer
from repro.rpc.errors import (
    BadRequest,
    CallMaybeExecuted,
    DeadlineExpired,
    MarshalError,
    RemoteError,
    RpcError,
    StaleCall,
    TransportClosed,
    TransportError,
    UnknownInterface,
    UnknownMethod,
)
from repro.rpc.faults import (
    FaultyTransport,
    NetworkFault,
    NetworkFaultInjector,
    NullNetworkInjector,
)
from repro.rpc.interface import CallHeader, Interface, MethodSpec
from repro.rpc.marshal import (
    Bool,
    Bytes,
    DictOf,
    Float,
    Int,
    ListOf,
    OptionalOf,
    Pickled,
    RecordOf,
    Str,
    TupleOf,
    TypeExpr,
    Void,
)
from repro.rpc.retry import NO_RETRY, RetryPolicy, RpcClientStats
from repro.rpc.server import ReplyCache, RpcServer
from repro.rpc.transport import (
    LAN_1987,
    LoopbackTransport,
    NetworkModel,
    NULL_NETWORK,
    TcpTransport,
    Transport,
)

__all__ = [
    "BadRequest",
    "Bool",
    "Bytes",
    "CallHeader",
    "CallMaybeExecuted",
    "DeadlineExpired",
    "DictOf",
    "EventLoopServer",
    "FaultyTransport",
    "Float",
    "Int",
    "Interface",
    "LAN_1987",
    "ListOf",
    "LoopbackTransport",
    "MarshalError",
    "MethodSpec",
    "NO_RETRY",
    "NULL_NETWORK",
    "NetworkFault",
    "NetworkFaultInjector",
    "NetworkModel",
    "NullNetworkInjector",
    "OptionalOf",
    "Pickled",
    "Proxy",
    "RecordOf",
    "RemoteError",
    "ReplyCache",
    "RetryPolicy",
    "RpcClient",
    "RpcClientStats",
    "RpcError",
    "RpcServer",
    "StaleCall",
    "Str",
    "TcpTransport",
    "Transport",
    "TransportClosed",
    "TransportError",
    "TupleOf",
    "TypeExpr",
    "UnknownInterface",
    "UnknownMethod",
    "Void",
    "connect",
]
