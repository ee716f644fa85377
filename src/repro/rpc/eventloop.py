"""Event-driven TCP front end: one selector loop, many connections.

A thread-per-connection server spends a thread — and its share of
scheduler churn — on every client, which caps how much concurrency the
transport can feed the group-commit pipeline (E5d measures one, kept as a
comparator in :mod:`repro.baselines.threaded`).  This server is the
classic single-event-loop shape on the stdlib :mod:`selectors` module:

* one loop thread owns the listener and every connection's buffers and
  does all socket I/O non-blocking (incremental length-prefix frame
  decoding, no blocking ``recv`` loops);

* requests are **pipelined**: a client may have many frames in flight on
  one connection.  Because the wire protocol carries no correlation ids,
  responses to one connection are written back in *request order* (the
  loop reorders completions), which also preserves the ordering
  at-most-once clients rely on; across connections, writes happen in
  completion order, so one connection's slow ``update`` never delays
  another connection's ``enquire``;

* dispatch runs on a small worker pool, so an fsync-bound ``update``
  blocks a worker, not the loop — except a method its interface declares
  a ``bounded_enquiry`` (the name server's ``lookup``, for one), which
  the loop thread runs to completion itself when the connection has
  nothing else in flight: recv, dispatch and send on one thread, no
  queue hand-off and no waker byte (:meth:`RpcServer.dispatch_enquiry`
  says when it may; DESIGN.md, "Enquiries on the loop", says why);

* a per-connection pipeline cap plus a write-backlog bound provide
  backpressure: an overloaded connection simply stops being read until
  its responses drain (recorded in the flight ring as ``rpc_overload``).

It is the only TCP server in :mod:`repro.rpc`: every node serves through
it (:mod:`repro.nameserver.serve`), and :class:`~repro.rpc.transport.TcpTransport`
is its client.
"""

from __future__ import annotations

import queue
import selectors
import socket
import struct
import threading
import time
from collections import deque

from repro.rpc.server import RpcServer
from repro.rpc.transport import disable_nagle

_FRAME = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024
_READ_CHUNK = 256 * 1024

#: dispatch workers (slow updates block a worker, never the loop)
DEFAULT_WORKERS = 8
#: per-connection cap on frames read but not yet answered
DEFAULT_MAX_PIPELINE = 128
#: per-connection cap on buffered unsent response bytes
DEFAULT_MAX_BACKLOG_BYTES = 8 * 1024 * 1024
#: this many drops inside one second is reported as a disconnect storm
STORM_DROPS_PER_SECOND = 16


class _Connection:
    """One client connection's buffers and pipelining state (loop-owned)."""

    __slots__ = (
        "sock",
        "fd",
        "inbuf",
        "outbuf",
        "sent",
        "next_id",
        "next_to_write",
        "results",
        "in_flight",
        "paused",
        "dead",
        "events",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.sent = 0  # bytes of outbuf already written to the socket
        self.next_id = 0  # id assigned to the next frame read
        self.next_to_write = 0  # id whose response goes out next
        self.results: dict[int, bytes] = {}  # completed out-of-order
        self.in_flight = 0  # frames read but not yet written back
        self.paused = False  # reads suspended for backpressure
        self.dead = False
        self.events = selectors.EVENT_READ  # currently registered mask


class EventLoopServer:
    """An event-driven TCP front end for an :class:`RpcServer`.

    A malformed frame closes only that connection (with a flight event and
    a bumped ``rpc_server_connection_errors_total``); ``stop()`` closes
    the listener and every connection and joins the loop and worker
    threads; an unexpected listener death is loud (counter + flight
    event) instead of silent.

    >>> srv = EventLoopServer(rpc_server, port=0).start()
    >>> transport = TcpTransport(srv.host, srv.port)
    """

    def __init__(
        self,
        server: RpcServer,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = DEFAULT_WORKERS,
        max_pipeline: int = DEFAULT_MAX_PIPELINE,
        max_backlog_bytes: int = DEFAULT_MAX_BACKLOG_BYTES,
        flight=None,
    ) -> None:
        if workers < 1:
            raise ValueError("the dispatch pool needs at least one worker")
        if max_pipeline < 1:
            raise ValueError("max_pipeline counts from 1")
        self.server = server
        self.workers = workers
        self.max_pipeline = max_pipeline
        self.max_backlog_bytes = max_backlog_bytes
        self.flight = flight
        # A deep accept backlog is part of the design: one loop thread
        # drains accepts in bursts, so a connection storm (hundreds of
        # clients arriving within one scheduler quantum) must queue in
        # the kernel instead of overflowing into SYN drops and 1 s
        # client-side retransmission stalls.
        self._listener = socket.create_server((host, port), backlog=4096)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]

        self._selector = selectors.DefaultSelector()
        self._connections: dict[int, _Connection] = {}
        self._tasks: queue.Queue = queue.Queue()
        self._completions: deque[tuple[_Connection, int, bytes | None]] = deque()
        self._stopping = threading.Event()
        self._loop_thread: threading.Thread | None = None
        self._pool: list[threading.Thread] = []
        self._recent_drops: deque[float] = deque(maxlen=STORM_DROPS_PER_SECOND)
        self._storm_reported_at = 0.0

        # The waker: workers (and stop()) write one byte to unblock the
        # selector so completions are flushed promptly.
        self._waker_recv, self._waker_send = socket.socketpair()
        self._waker_recv.setblocking(False)
        self._waker_send.setblocking(False)

        registry = server.registry
        self._conn_gauge = registry.gauge(
            "rpc_server_connections", "Currently open client connections."
        )
        self._turn_seconds = registry.histogram(
            "rpc_eventloop_turn_seconds",
            "Time the event loop spends processing one batch of events.",
            buckets=(0.0001, 0.0005, 0.001, 0.005, 0.02, 0.1, 0.5, 2.0),
        )
        self._pipeline_depth = registry.histogram(
            "rpc_server_pipeline_depth",
            "In-flight pipelined frames on a connection at frame arrival.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self._connection_errors_metric = registry.counter(
            "rpc_server_connection_errors_total",
            "Connections dropped for malformed frames or dispatch bugs.",
        )
        self._listener_failures = registry.counter(
            "rpc_server_listener_failures_total",
            "Unexpected listener/accept-loop deaths (not clean stops).",
        )
        self._overloads = registry.counter(
            "rpc_server_overload_pauses_total",
            "Connections paused for exceeding the pipeline/backlog caps.",
        )
        dispatched = registry.counter(
            "rpc_server_dispatch_total",
            "Frames dispatched, by the thread that ran them: the event "
            "loop itself (declared bounded enquiries) or the worker pool.",
            labelnames=("path",),
        )
        self._dispatched_on_loop = dispatched.labels("loop")
        self._dispatched_on_pool = dispatched.labels("pool")
        #: set when the listener died without stop() being called
        self.listener_failed = False

    @property
    def connection_errors(self) -> int:
        return int(self._connection_errors_metric.value)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "EventLoopServer":
        if self._loop_thread is not None:  # idempotent
            return self
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._selector.register(self._waker_recv, selectors.EVENT_READ, None)
        for n in range(self.workers):
            worker = threading.Thread(
                target=self._worker, name=f"rpc-dispatch-{n}", daemon=True
            )
            worker.start()
            self._pool.append(worker)
        self._loop_thread = threading.Thread(
            target=self._run, name="rpc-eventloop", daemon=True
        )
        self._loop_thread.start()
        return self

    def stop(self, join_timeout: float = 5.0) -> None:
        self._stopping.set()
        self._wake()
        if self._loop_thread is not None:
            self._loop_thread.join(join_timeout)
        for _ in self._pool:
            self._tasks.put(None)
        for worker in self._pool:
            worker.join(join_timeout)
        # Normally the loop thread cleans up after itself on the way out;
        # repeating it here is idempotent and covers a never-started or
        # wedged loop.
        self._cleanup()

    def __enter__(self) -> "EventLoopServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _cleanup(self) -> None:
        for conn in list(self._connections.values()):
            conn.dead = True
            try:
                conn.sock.close()
            except OSError:
                pass
        self._connections.clear()
        self._conn_gauge.set(0)
        for sock in (self._listener, self._waker_recv, self._waker_send):
            try:
                sock.close()
            except OSError:
                pass
        try:
            self._selector.close()
        except Exception:
            pass

    def _wake(self) -> None:
        try:
            self._waker_send.send(b"\0")
        except OSError:
            pass  # buffer full (a wake-up is already pending) or closed

    # -- the loop ------------------------------------------------------------

    def _run(self) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    events = self._selector.select(timeout=0.5)
                except OSError as exc:
                    # A registered fd went bad behind our back (e.g. the
                    # listener was closed externally).  Recover what can
                    # be recovered and report the rest loudly.
                    self._recover_selector(exc)
                    continue
                if self._stopping.is_set():
                    break
                # An externally-closed listener is silently dropped from
                # epoll-style selectors (no EBADF from select), so probe
                # its health every turn: dying quietly is the one thing
                # an accept loop is not allowed to do.
                if not self.listener_failed and self._listener.fileno() == -1:
                    self._note_listener_failure(
                        OSError("listening socket closed externally")
                    )
                started = time.perf_counter()
                for key, _mask in events:
                    if key.fileobj is self._waker_recv:
                        self._drain_waker()
                    elif key.fileobj is self._listener:
                        self._handle_accept()
                    else:
                        conn = key.data
                        if conn is None or conn.dead:
                            continue
                        if _mask & selectors.EVENT_READ:
                            self._handle_read(conn)
                        if _mask & selectors.EVENT_WRITE and not conn.dead:
                            self._handle_write(conn)
                self._drain_completions()
                if events:
                    self._turn_seconds.observe(time.perf_counter() - started)
        except Exception as exc:  # pragma: no cover - loop must never die silently
            self.listener_failed = True
            self._listener_failures.inc()
            if self.flight is not None:
                self.flight.record("rpc_eventloop_died", error=repr(exc))
        finally:
            self._cleanup()

    def _recover_selector(self, exc: OSError) -> None:
        """Rebuild selector state after an EBADF-style surprise."""
        if self._stopping.is_set():
            return
        if self._listener.fileno() == -1:
            self._note_listener_failure(exc)
        for conn in list(self._connections.values()):
            if conn.sock.fileno() == -1:
                self._drop(conn, "socket closed externally")
        # Re-register everything still valid into a fresh selector.
        old = self._selector
        self._selector = selectors.DefaultSelector()
        try:
            old.close()
        except Exception:
            pass
        self._selector.register(self._waker_recv, selectors.EVENT_READ, None)
        if self._listener.fileno() != -1:
            self._selector.register(self._listener, selectors.EVENT_READ, None)
        for conn in self._connections.values():
            if conn.events:
                self._selector.register(conn.sock, conn.events, conn)

    def _note_listener_failure(self, exc: OSError) -> None:
        """The loud-death contract: a listener must never die quietly."""
        if self.listener_failed:
            return
        self.listener_failed = True
        self._listener_failures.inc()
        if self.flight is not None:
            self.flight.record(
                "rpc_listener_failed",
                host=self.host,
                port=self.port,
                error=repr(exc),
            )

    def _drain_waker(self) -> None:
        try:
            while self._waker_recv.recv(4096):
                pass
        except OSError:
            pass  # would-block: drained

    def _handle_accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                if not self._stopping.is_set():
                    self._note_listener_failure(exc)
                    try:
                        self._selector.unregister(self._listener)
                    except Exception:
                        pass
                return
            sock.setblocking(False)
            disable_nagle(sock)
            conn = _Connection(sock)
            self._connections[conn.fd] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._conn_gauge.set(len(self._connections))

    def _handle_read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn, None)
            return
        if not data:
            # A disconnect, even mid-frame, is quiet.
            self._drop(conn, None)
            return
        conn.inbuf += data
        self._parse_frames(conn)

    def _parse_frames(self, conn: _Connection) -> None:
        """Incremental frame decoding: consume every complete frame."""
        buf = conn.inbuf
        offset = 0
        while True:
            available = len(buf) - offset
            if available < _FRAME.size:
                break
            (length,) = _FRAME.unpack_from(buf, offset)
            if length > _MAX_FRAME:
                self._connection_errors_metric.inc()
                self._drop(conn, "oversize frame")
                return
            if available - _FRAME.size < length:
                break
            start = offset + _FRAME.size
            payload = bytes(buf[start:start + length])
            offset = start + length
            request_id = conn.next_id
            conn.next_id += 1
            conn.in_flight += 1
            self._pipeline_depth.observe(conn.in_flight)
            # A declared enquiry on an otherwise idle connection runs
            # here and is written back by this turn's _drain_completions;
            # with other frames in flight the pool keeps request order
            # what it always was.
            if conn.in_flight == 1 and self._complete(
                self.server.dispatch_enquiry, conn, request_id, payload
            ):
                self._dispatched_on_loop.inc()
            else:
                self._tasks.put((conn, request_id, payload))
                self._dispatched_on_pool.inc()
        if offset:
            del buf[:offset]
        self._apply_backpressure(conn)

    def _apply_backpressure(self, conn: _Connection) -> None:
        overloaded = (
            conn.in_flight >= self.max_pipeline
            or len(conn.outbuf) - conn.sent > self.max_backlog_bytes
        )
        if overloaded and not conn.paused:
            conn.paused = True
            self._overloads.inc()
            if self.flight is not None:
                self.flight.record(
                    "rpc_overload",
                    fd=conn.fd,
                    in_flight=conn.in_flight,
                    backlog_bytes=len(conn.outbuf) - conn.sent,
                )
            self._update_interest(conn)
        elif conn.paused and not overloaded:
            conn.paused = False
            self._update_interest(conn)

    def _update_interest(self, conn: _Connection) -> None:
        if conn.dead:
            return
        mask = 0
        if not conn.paused:
            mask |= selectors.EVENT_READ
        if conn.sent < len(conn.outbuf):
            mask |= selectors.EVENT_WRITE
        if mask == conn.events:
            return
        try:
            if mask == 0:
                # Paused with nothing to write: fully parked until a
                # completion re-arms it (a worker wake-up, not a poll).
                self._selector.unregister(conn.sock)
            elif conn.events == 0:
                self._selector.register(conn.sock, mask, conn)
            else:
                self._selector.modify(conn.sock, mask, conn)
        except (KeyError, ValueError, OSError):
            self._drop(conn, None)
            return
        conn.events = mask

    def _handle_write(self, conn: _Connection) -> None:
        if conn.sent >= len(conn.outbuf):
            self._update_interest(conn)
            return
        try:
            sent = conn.sock.send(memoryview(conn.outbuf)[conn.sent:])
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn, None)
            return
        conn.sent += sent
        if conn.sent >= len(conn.outbuf):
            conn.outbuf.clear()
            conn.sent = 0
        self._apply_backpressure(conn)
        self._update_interest(conn)

    def _drop(self, conn: _Connection, reason: str | None) -> None:
        if conn.dead:
            return
        conn.dead = True
        if reason and self.flight is not None:
            self.flight.record(
                "rpc_connection_dropped",
                fd=conn.fd,
                reason=reason,
                in_flight=conn.in_flight,
            )
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._connections.pop(conn.fd, None)
        self._conn_gauge.set(len(self._connections))
        self._note_drop_storm()

    def _note_drop_storm(self) -> None:
        now = time.monotonic()
        self._recent_drops.append(now)
        if (
            len(self._recent_drops) == self._recent_drops.maxlen
            and now - self._recent_drops[0] <= 1.0
            and now - self._storm_reported_at > 1.0
        ):
            self._storm_reported_at = now
            if self.flight is not None:
                self.flight.record(
                    "rpc_disconnect_storm",
                    drops=len(self._recent_drops),
                    window_seconds=1.0,
                )

    # -- dispatch workers ----------------------------------------------------

    def _worker(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            conn, request_id, payload = task
            if conn.dead:
                continue  # the connection went away while queued
            self._complete(self.server.dispatch, conn, request_id, payload)
            self._wake()

    def _complete(self, dispatch, conn, request_id, payload) -> bool:
        """Run ``dispatch`` and queue its response for the loop to write.

        False means ``dispatch`` declined the request (only
        ``dispatch_enquiry`` does) and nothing was queued.
        """
        try:
            response: bytes | None = dispatch(payload)
        except Exception as exc:
            # dispatch() answers bad input with error frames, so this
            # is a server bug: close the connection, keep the loop.
            self._connection_errors_metric.inc()
            if self.flight is not None:
                self.flight.record("rpc_dispatch_failed", error=repr(exc))
            response = None
        else:
            if response is None:
                return False
        self._completions.append((conn, request_id, response))
        return True

    def _drain_completions(self) -> None:
        """Loop thread: move completed responses into ordered write buffers."""
        flushed: set[int] = set()
        while True:
            try:
                conn, request_id, response = self._completions.popleft()
            except IndexError:
                break
            if conn.dead:
                continue
            if response is None:
                self._drop(conn, "dispatch failed")
                continue
            conn.results[request_id] = response
            # Flush the contiguous prefix: responses go out in request
            # order so a pipelining client can match them up.
            while conn.next_to_write in conn.results:
                reply = conn.results.pop(conn.next_to_write)
                conn.outbuf += _FRAME.pack(len(reply))
                conn.outbuf += reply
                conn.next_to_write += 1
                conn.in_flight -= 1
            flushed.add(conn.fd)
        for fd in flushed:
            conn = self._connections.get(fd)
            if conn is None or conn.dead:
                continue
            # Opportunistic immediate write saves a selector round trip.
            self._handle_write(conn)
            if not conn.dead:
                self._apply_backpressure(conn)
                self._update_interest(conn)
