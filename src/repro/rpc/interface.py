"""Interface declarations: the input to stub generation.

An :class:`Interface` declares methods with static signatures; from it the
package generates both halves automatically (the paper: "The RPC stub
modules were generated automatically"):

* the client proxy (:meth:`repro.rpc.client.RpcClient.proxy`), whose
  generated methods marshal arguments and unmarshal results; and
* the server dispatcher (:class:`repro.rpc.server.RpcServer`), which
  unmarshals, calls the implementation, and marshals the reply.

Exception types can be registered on the interface so a server-side
``PreconditionFailed`` arrives client-side as ``PreconditionFailed``.

>>> calc = Interface("Calculator")
>>> calc.method("add", params=[("a", Int), ("b", Int)], returns=Int)
<repro.rpc.interface.MethodSpec object at ...>
"""

from __future__ import annotations

from repro.pickles.wire import WireReader, encode_varint
from repro.rpc.errors import UnknownMethod
from repro.rpc.marshal import TypeExpr, Void, compile_params


class MethodSpec:
    """One method's name, signature, and compiled marshallers."""

    def __init__(
        self,
        interface_name: str,
        name: str,
        params: list[tuple[str, TypeExpr]],
        returns: TypeExpr,
        bounded_enquiry: bool = False,
    ) -> None:
        self.interface_name = interface_name
        self.name = name
        self.params = list(params)
        self.returns = returns
        #: see :meth:`Interface.method`
        self.bounded_enquiry = bounded_enquiry
        (
            self.encode_args,
            self.decode_args,
            self.encode_args_into,
        ) = compile_params(self.params)
        self.encode_result = returns.encoder()
        self.decode_result = returns.decoder()
        #: precomputed ``wire_name + method`` header bytes (profile-guided:
        #: both are constant per spec, so the hot path appends one blob
        #: instead of re-encoding two strings per call); filled in by
        #: :meth:`Interface.method`.
        self.request_prefix: bytes | None = None

    def signature(self) -> str:
        inner = ", ".join(f"{n}: {t.describe()}" for n, t in self.params)
        return f"{self.name}({inner}) -> {self.returns.describe()}"


class Interface:
    """A named collection of method specifications."""

    def __init__(self, name: str, version: int = 1) -> None:
        if not name:
            raise ValueError("interface name must be non-empty")
        self.name = name
        self.version = version
        self.methods: dict[str, MethodSpec] = {}
        self.errors: dict[str, type[Exception]] = {}

    @property
    def wire_name(self) -> str:
        return f"{self.name}/{self.version}"

    def method(
        self,
        name: str,
        params: list[tuple[str, TypeExpr]] | None = None,
        returns: TypeExpr = Void,
        bounded_enquiry: bool = False,
    ) -> MethodSpec:
        """Declare a method; returns its spec (mostly for introspection).

        ``bounded_enquiry`` is a promise about every implementation of the
        method, in the paper's terms: it is an *enquiry* (read-only, under
        at most the shared lock) whose cost does not grow with the size
        of the data, and it makes no file-system call, waits on no commit
        barrier and calls no peer.  A server may then run it to completion
        on the thread that read the request instead of handing it to a
        thread that is allowed to block (see
        :meth:`repro.rpc.server.RpcServer.dispatch_enquiry`).
        """
        if name in self.methods:
            raise ValueError(f"method {name!r} already declared")
        spec = MethodSpec(self.name, name, params or [], returns, bounded_enquiry)
        prefix = bytearray()
        _encode_str(self.wire_name, prefix)
        _encode_str(name, prefix)
        spec.request_prefix = bytes(prefix)
        self.methods[name] = spec
        return spec

    def error(self, exception_type: type[Exception], name: str | None = None) -> None:
        """Register an exception type to cross the wire as itself."""
        wire_name = name if name is not None else exception_type.__name__
        existing = self.errors.get(wire_name)
        if existing is not None and existing is not exception_type:
            raise ValueError(f"error name {wire_name!r} already registered")
        self.errors[wire_name] = exception_type

    def error_name_for(self, exc: Exception) -> str | None:
        for wire_name, exc_type in self.errors.items():
            if type(exc) is exc_type:
                return wire_name
        return None

    def spec(self, method: str) -> MethodSpec:
        found = self.methods.get(method)
        if found is None:
            raise UnknownMethod(self.name, method)
        return found

    def describe(self) -> str:
        lines = [f"interface {self.wire_name}"]
        for name in sorted(self.methods):
            lines.append(f"  {self.methods[name].signature()}")
        return "\n".join(lines)


# Request/response wire framing (shared by client and server) ----------------

STATUS_OK = 0
STATUS_APP_ERROR = 1
STATUS_RPC_ERROR = 2


class CallHeader:
    """The routing and at-most-once identity of one request.

    ``client_id`` + ``seq`` make retransmissions of a call recognisable:
    a client assigns each logical call a fresh sequence number and reuses
    it verbatim on every retry, so the server's reply cache can answer a
    duplicate without re-executing (the Birrell–Nelson at-most-once
    design the paper's RPC package relies on).  An empty ``client_id``
    opts out: the server executes unconditionally.

    ``trace`` carries the caller's trace context (``traceid-spanid``, see
    :mod:`repro.obs.tracing`) so the server's spans join the client's
    trace tree; empty means the call is untraced.
    """

    __slots__ = ("wire_name", "method", "client_id", "seq", "trace")

    def __init__(
        self,
        wire_name: str,
        method: str,
        client_id: str,
        seq: int,
        trace: str = "",
    ):
        self.wire_name = wire_name
        self.method = method
        self.client_id = client_id
        self.seq = seq
        self.trace = trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CallHeader({self.wire_name}.{self.method}, "
            f"client={self.client_id!r}, seq={self.seq})"
        )


def encode_request(
    interface: Interface,
    method: str,
    args: tuple,
    client_id: str = "",
    seq: int = 0,
    trace: str = "",
) -> bytes:
    """Marshal one call: wire name, method, call identity, arguments."""
    out = bytearray()
    encode_request_into(
        out, interface, method, args, client_id=client_id, seq=seq, trace=trace
    )
    return bytes(out)


def encode_request_into(
    out: bytearray,
    interface: Interface,
    method: str,
    args: tuple,
    client_id: str = "",
    seq: int = 0,
    trace: str = "",
) -> None:
    """Marshal one call into a caller-owned (reusable) buffer."""
    spec = interface.spec(method)
    if spec.request_prefix is not None:
        out += spec.request_prefix
    else:
        _encode_str(interface.wire_name, out)
        _encode_str(method, out)
    _encode_str(client_id, out)
    encode_varint(seq, out)
    _encode_str(trace, out)
    spec.encode_args_into(args, out)


def decode_request_header(data: bytes) -> tuple[CallHeader, WireReader]:
    """Read the call header; the reader stays at the arguments."""
    reader = WireReader(data)
    wire_name = _decode_str(reader)
    method = _decode_str(reader)
    client_id = _decode_str(reader)
    seq = reader.read_varint()
    trace = _decode_str(reader)
    return CallHeader(wire_name, method, client_id, seq, trace), reader


def _encode_str(value: str, out: bytearray) -> None:
    raw = value.encode("utf-8")
    encode_varint(len(raw), out)
    out.extend(raw)


def _decode_str(reader: WireReader) -> str:
    length = reader.read_varint()
    return reader.read_bytes(length).decode("utf-8")
