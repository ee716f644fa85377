"""The RPC server: dispatch from request bytes to implementation calls."""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer, extract
from repro.rpc.errors import BadRequest, UnknownInterface, UnknownMethod
from repro.rpc.interface import (
    STATUS_APP_ERROR,
    STATUS_OK,
    STATUS_RPC_ERROR,
    Interface,
    decode_request_header,
    _encode_str,
)

#: Default bound on distinct clients the reply cache remembers.
DEFAULT_MAX_CLIENTS = 1024


class _ClientLock:
    """A per-client mutex plus the number of threads currently using it.

    The refcount is what makes LRU eviction safe: a lock may only leave
    the cache's lock table once no dispatcher holds (or is queued on) it,
    otherwise a duplicate call arriving after eviction would get a fresh
    lock and race the still-running original into a second execution.
    """

    __slots__ = ("lock", "refs")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.refs = 0


class ReplyCache:
    """Per-client last-reply cache: the server half of at-most-once.

    A client serialises its own calls and reuses one sequence number for
    every retransmission of a call, so remembering only the *latest*
    ``(seq, reply)`` per client is sufficient: a duplicate of the current
    call is answered from the cache without re-executing, and anything
    older is a superseded call whose reply can no longer matter.

    Clients are evicted least-recently-used beyond ``max_clients``; an
    evicted client that retries an old call will re-execute it, so size
    the cache above the number of concurrently active clients (see
    docs/OPERATIONS.md, "RPC resilience").
    """

    CACHED = "cached"
    STALE = "stale"
    NEW = "new"

    def __init__(
        self,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_clients < 1:
            raise ValueError("reply cache needs room for at least one client")
        self.max_clients = max_clients
        self._entries: OrderedDict[str, tuple[int, bytes]] = OrderedDict()
        self._client_locks: dict[str, _ClientLock] = {}
        self._lock = threading.Lock()
        # Tallies live in the metrics registry — the single source of
        # truth — and the historical attributes read them back.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter(
            "rpc_reply_cache_hits_total",
            "Duplicate calls answered from the reply cache.",
        )
        self._misses = self.registry.counter(
            "rpc_reply_cache_misses_total",
            "Identified calls that required a fresh execution.",
        )
        self._stale_rejections = self.registry.counter(
            "rpc_reply_cache_stale_rejections_total",
            "Calls rejected as older than the cached sequence number.",
        )
        self._evictions = self.registry.counter(
            "rpc_reply_cache_evictions_total",
            "Clients evicted least-recently-used from the reply cache.",
        )
        self._clients = self.registry.gauge(
            "rpc_reply_cache_clients", "Distinct clients currently cached."
        )

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def stale_rejections(self) -> int:
        return int(self._stale_rejections.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @contextmanager
    def client_lock(self, client_id: str, blocking: bool = True):
        """Hold the per-client mutex serialising execution and cache updates.

        Holding it while executing means a duplicate that arrives during
        the original's execution *waits* and then hits the cache, instead
        of racing into a second execution.  A caller that must not wait
        passes ``blocking=False`` and is handed ``False`` instead of the
        mutex when another thread holds it.

        The entry is refcounted for the duration of the ``with`` block, so
        an LRU eviction of this client (see :meth:`store`) can never
        discard a lock that a dispatcher still holds or is queued on; the
        last releaser retires the lock instead.
        """
        with self._lock:
            entry = self._client_locks.get(client_id)
            if entry is None:
                entry = self._client_locks[client_id] = _ClientLock()
            entry.refs += 1
        held = False
        try:
            held = entry.lock.acquire(blocking)
            yield held
        finally:
            if held:
                entry.lock.release()
            with self._lock:
                entry.refs -= 1
                if entry.refs == 0 and client_id not in self._entries:
                    # The client was evicted (or never cached) while the
                    # lock was busy; retire it now that it is idle.
                    if self._client_locks.get(client_id) is entry:
                        del self._client_locks[client_id]

    def probe(self, client_id: str, seq: int) -> tuple[str, bytes | None]:
        """Classify ``seq`` against the cache: (verdict, cached reply)."""
        with self._lock:
            entry = self._entries.get(client_id)
            if entry is None:
                self._misses.inc()
                return self.NEW, None
            cached_seq, reply = entry
            if seq == cached_seq:
                self._hits.inc()
                self._entries.move_to_end(client_id)
                return self.CACHED, reply
            if seq < cached_seq:
                self._stale_rejections.inc()
                return self.STALE, None
            self._misses.inc()
            return self.NEW, None

    def store(self, client_id: str, seq: int, reply: bytes) -> None:
        with self._lock:
            self._entries[client_id] = (seq, reply)
            self._entries.move_to_end(client_id)
            while len(self._entries) > self.max_clients:
                evicted, _ = self._entries.popitem(last=False)
                # Only an *idle* lock may be discarded with its entry; a
                # busy one is left behind for its last holder to retire
                # (client_lock), preserving at-most-once for in-flight
                # duplicates of the evicted client.
                lock_entry = self._client_locks.get(evicted)
                if lock_entry is not None and lock_entry.refs == 0:
                    del self._client_locks[evicted]
                self._evictions.inc()
            self._clients.set(len(self._entries))

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "clients": len(self._entries),
                "hits": self.hits,
                "stale_rejections": self.stale_rejections,
                "evictions": self.evictions,
            }


class RpcServer:
    """Maps exported interfaces to implementation objects.

    An implementation object simply has a method per declared method name;
    the generated dispatcher unmarshals arguments positionally, calls it,
    and marshals the result — there is no hand-written byte handling in
    application code, which is the paper's point about implementing the
    name server "entirely in a strongly typed language".

    Requests that carry a client identity (see
    :class:`repro.rpc.interface.CallHeader`) get **at-most-once**
    execution through the :class:`ReplyCache`: a retransmitted call is
    answered with the original reply instead of running again.
    """

    def __init__(
        self,
        max_cached_clients: int = DEFAULT_MAX_CLIENTS,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._exports: dict[str, tuple[Interface, object]] = {}
        # Profile-guided fast path: the sampling profiler showed dispatch
        # spending its time in export lock + spec lookup + getattr, so
        # exports are preresolved into one immutable table mapping
        # (wire_name, method) -> (spec, bound method, interface).  The
        # table is replaced wholesale under the lock and read without it.
        self._table: dict[tuple[str, str], tuple] = {}
        #: request prefixes (wire name + method) of every exported method
        #: declared ``bounded_enquiry``; rebuilt with the table
        self._enquiry_prefixes: tuple[bytes, ...] = ()
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self._calls_served = self.registry.counter(
            "rpc_server_calls_total", "Calls executed (not answered from cache)."
        )
        self._method_seconds = self.registry.histogram(
            "rpc_server_method_seconds",
            "Per-method server-side dispatch latency.",
            labelnames=("method",),
        )
        # labels() resolves through the registry lock; the set of method
        # names is tiny and stable, so cache the resolved series.
        self._method_series: dict[str, object] = {}
        self.reply_cache = ReplyCache(max_cached_clients, registry=self.registry)

    @property
    def calls_served(self) -> int:
        return int(self._calls_served.value)

    def export(self, interface: Interface, implementation: object) -> None:
        """Expose ``implementation`` under ``interface``.

        Verifies up front that the implementation has every declared
        method, the way a stub compiler would fail the build.
        """
        missing = [
            name
            for name in interface.methods
            if not callable(getattr(implementation, name, None))
        ]
        if missing:
            raise TypeError(
                f"implementation {type(implementation).__name__} lacks "
                f"methods {missing!r} declared by {interface.wire_name}"
            )
        with self._lock:
            self._exports[interface.wire_name] = (interface, implementation)
            self._rebuild_table()

    def unexport(self, interface: Interface) -> None:
        with self._lock:
            self._exports.pop(interface.wire_name, None)
            self._rebuild_table()

    def _rebuild_table(self) -> None:
        """Recompute the preresolved dispatch table (caller holds _lock)."""
        table: dict[tuple[str, str], tuple] = {}
        enquiry_prefixes = []
        for wire_name, (interface, implementation) in self._exports.items():
            for method_name, spec in interface.methods.items():
                table[(wire_name, method_name)] = (
                    spec,
                    getattr(implementation, method_name),
                    interface,
                )
                if spec.bounded_enquiry:
                    enquiry_prefixes.append(spec.request_prefix)
        self._table = table
        self._enquiry_prefixes = tuple(enquiry_prefixes)

    def exported_interfaces(self) -> list[str]:
        with self._lock:
            return sorted(self._exports)

    @property
    def reply_cache_hits(self) -> int:
        return self.reply_cache.hits

    # -- dispatch -------------------------------------------------------------

    def dispatch(self, request: bytes) -> bytes:
        """Decode, deduplicate, call, encode.  Always returns response bytes."""
        try:
            header, reader = decode_request_header(request)
        except Exception as exc:
            return _rpc_error(f"malformed request: {exc!r}")
        span, timer = self._observe(header)
        with span, timer:
            if not header.client_id:
                return self._execute(header, reader)
            # At-most-once path: serialise per client so a duplicate
            # arriving while the original executes waits, then hits the
            # cache.
            with self.reply_cache.client_lock(header.client_id):
                return self._execute_once(header, reader, span)

    def dispatch_enquiry(self, request: bytes) -> bytes | None:
        """:meth:`dispatch` for a caller that must not block, or ``None``.

        Serves ``request`` on the calling thread when it names a method
        declared ``bounded_enquiry`` and the at-most-once path can take
        the caller's reply-cache lock without waiting; the response is
        byte for byte what :meth:`dispatch` would have produced.  ``None``
        means nothing was executed or recorded and the request belongs
        on a thread that may block — it is an update, an enquiry that
        scans, malformed, or a retry whose original is still running.
        """
        # The header opens with wire name and method, which each declared
        # spec precomputed: one startswith decides without decoding.
        if not request.startswith(self._enquiry_prefixes):
            return None
        try:
            header, reader = decode_request_header(request)
        except Exception:
            return None  # dispatch() words the error
        if not header.client_id:
            span, timer = self._observe(header)
            with span, timer:
                return self._execute(header, reader)
        with self.reply_cache.client_lock(header.client_id, blocking=False) as held:
            if not held:
                return None
            span, timer = self._observe(header)
            with span, timer:
                return self._execute_once(header, reader, span)

    def _observe(self, header):
        """The span and the latency timer one served call runs under."""
        # Join the caller's trace (the header carries its span context);
        # entering the span makes it the parent of everything the
        # implementation records — lock waits, log appends, fsyncs.
        span = NULL_SPAN
        if self.tracer is not None:
            span = self.tracer.start_span(
                f"rpc.server.{header.method}",
                parent=extract(header.trace),
                attrs={"interface": header.wire_name},
            )
        series = self._method_series.get(header.method)
        if series is None:
            series = self._method_series[header.method] = (
                self._method_seconds.labels(header.method)
            )
        return span, series.time()

    def _execute_once(self, header, reader, span) -> bytes:
        """Answer an identified call (caller holds its client lock)."""
        verdict, cached = self.reply_cache.probe(header.client_id, header.seq)
        if verdict != ReplyCache.NEW:
            span.set("reply_cache", verdict)
        if verdict == ReplyCache.CACHED:
            return cached  # type: ignore[return-value]
        if verdict == ReplyCache.STALE:
            return _rpc_error(
                f"stale call: seq {header.seq} for client "
                f"{header.client_id!r} was superseded"
            )
        response = self._execute(header, reader)
        self.reply_cache.store(header.client_id, header.seq, response)
        return response

    def _execute(self, header, reader) -> bytes:
        """One actual execution: unmarshal, call, marshal."""
        resolved = self._table.get((header.wire_name, header.method))
        if resolved is None:
            # Slow path: unknown interface/method, or a method declared
            # after export; produce the precise error (or late-resolve).
            with self._lock:
                export = self._exports.get(header.wire_name)
            if export is None:
                return _rpc_error(str(UnknownInterface(header.wire_name)))
            interface, implementation = export
            try:
                spec = interface.spec(header.method)
            except UnknownMethod as exc:
                return _rpc_error(str(exc))
            call = getattr(implementation, header.method, None)
            if call is None:
                return _rpc_error(
                    f"implementation lacks method {header.method!r}"
                )
        else:
            spec, call, interface = resolved
        try:
            args = spec.decode_args(reader)
        except Exception as exc:
            return _rpc_error(f"argument unmarshalling failed: {exc!r}")
        if reader.remaining():
            return _rpc_error(f"{reader.remaining()} trailing request bytes")

        try:
            result = call(*args)
        except Exception as exc:
            return _app_error(interface, exc)

        out = bytearray([STATUS_OK])
        try:
            spec.encode_result(result, out)
        except Exception as exc:
            return _rpc_error(
                f"result of {header.wire_name}.{header.method} failed to "
                f"marshal: {exc!r}"
            )
        self._calls_served.inc()
        return bytes(out)


def _rpc_error(message: str) -> bytes:
    out = bytearray([STATUS_RPC_ERROR])
    _encode_str(message, out)
    return bytes(out)


def _app_error(interface: Interface, exc: Exception) -> bytes:
    name = interface.error_name_for(exc)
    if name is None:
        name = type(exc).__name__
    out = bytearray([STATUS_APP_ERROR])
    _encode_str(name, out)
    _encode_str(str(exc), out)
    return bytes(out)


class BadResponse(BadRequest):
    """The response bytes are malformed (wrong length, bad status…)."""
