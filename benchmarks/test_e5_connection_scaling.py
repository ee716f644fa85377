"""E5d — connection scaling: the event loop against a threaded rival (wall clock).

The two front ends are the product's :class:`repro.rpc.EventLoopServer`
and the thread-per-connection rival kept for this comparison,
:class:`repro.baselines.threaded.ThreadPerConnectionServer` (the model
names in the tables stay "eventloop" and "threaded").

The paper's E5 measures the database's sustainable update rate; this
extension measures whether the *transport* can keep feeding it once
clients multiply and churn.  The workload is a **reconnect storm**, the
regime the million-user north star actually has to survive: in each
wave, N clients connect simultaneously, push a couple of pipelined
``bind`` updates, and disconnect; the next wave begins when the last
reply of the previous one has arrived.  A persistent, unpipelined probe
connection measures ``enquire`` round-trip latency throughout.

Why a storm and not a steady pipelined flood: with long-lived
connections both front ends are marshalling-bound on the interpreter
lock and measure within ~15% of each other.  Connection *handling* is
where the architectures genuinely diverge — the threaded server pays a
thread spawn/teardown per connection and drains its accept queue one
``Thread.start()`` at a time (a 256-client wave overflows its backlog
into SYN-retransmission stalls), while the event loop accepts a whole
wave in a few selector turns behind a deep listen backlog.

These are real wall-clock numbers with client and server sharing one
interpreter, so absolute rates understate a two-machine deployment; the
*comparison* between models is what the regression sentry locks in (the
event loop must stay ≥ 3x the threaded server's storm update throughput
at 256 connections).
"""

from __future__ import annotations

import errno
import select
import selectors
import socket
import struct
import time

from conftest import once
from repro.baselines.threaded import ThreadPerConnectionServer
from repro.obs.regress import metric
from repro.rpc import (
    Bytes,
    EventLoopServer,
    Interface,
    OptionalOf,
    RpcServer,
    Str,
    Void,
)
from repro.rpc.interface import encode_request

CONNECTION_COUNTS = (1, 16, 256)
TOTAL_UPDATES = 2048  # per (model, connection-count) cell
UPDATES_PER_SESSION = 2  # pipelined frames each stormed connection sends
VALUE_BYTES = 400  # E5's ballpark record size
REQUIRED_SPEEDUP_AT_256 = 3.0

_PREFIX = struct.Struct(">I")


def scale_interface() -> Interface:
    iface = Interface("ScaleKV")
    iface.method(
        "bind", params=[("name", Str), ("value", Bytes)], returns=Void
    )
    iface.method(
        "enquire", params=[("name", Str)], returns=OptionalOf(Bytes)
    )
    return iface


class InMemoryNames:
    """A name table without the storage layer: the benchmark isolates
    the front end, so the service itself must not be the bottleneck."""

    def __init__(self) -> None:
        self.table: dict[str, bytes] = {}

    def bind(self, name: str, value: bytes) -> None:
        self.table[name] = value

    def enquire(self, name: str):
        return self.table.get(name)


def start_front(model: str, rpc: RpcServer):
    front_type = ThreadPerConnectionServer if model == "threaded" else EventLoopServer
    return front_type(rpc).start()


def _frame(payload: bytes) -> bytes:
    return _PREFIX.pack(len(payload)) + payload


def _send_whole(sock: socket.socket, chunk: bytes) -> None:
    """Write all of ``chunk`` to a non-blocking socket (briefly waiting
    out a full kernel buffer, so a frame is never left half-sent)."""
    view = memoryview(chunk)
    while view:
        try:
            sent = sock.send(view)
        except BlockingIOError:
            select.select([], [sock], [], 5)
            continue
        view = view[sent:]


def _count_frames(buf: bytearray) -> int:
    """Consume every complete frame in ``buf``; return how many."""
    frames = 0
    offset = 0
    while len(buf) - offset >= _PREFIX.size:
        (length,) = _PREFIX.unpack_from(buf, offset)
        if len(buf) - offset - _PREFIX.size < length:
            break
        offset += _PREFIX.size + length
        frames += 1
    del buf[:offset]
    return frames


def drive_storm(
    host: str,
    port: int,
    connections: int,
    total_updates: int,
    session_payload: bytes,
    session_replies: int,
    probe_frame: bytes,
) -> tuple[float, list[float]]:
    """Run reconnect-storm waves; returns (updates/s, probe latencies).

    Each wave opens ``connections`` sockets at once, sends every one its
    pipelined session payload, and waits for all replies; the probe
    connection stays open across waves doing one-at-a-time ``enquire``
    round trips whose latencies are sampled.
    """
    updates_per_wave = connections * session_replies
    waves = max(1, total_updates // updates_per_wave)

    sel = selectors.DefaultSelector()
    probe_sock = socket.create_connection((host, port), timeout=10)
    probe_sock.setblocking(False)
    probe_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    probe_buf = bytearray()
    probe_sent_at: float | None = None
    latencies: list[float] = []
    sel.register(probe_sock, selectors.EVENT_READ, None)
    _send_whole(probe_sock, probe_frame)
    probe_sent_at = time.perf_counter()

    done_updates = 0
    started = time.perf_counter()
    try:
        for _wave in range(waves):
            wave: dict[socket.socket, list[int]] = {}
            for _ in range(connections):
                sock = socket.socket()
                sock.setblocking(False)
                rc = sock.connect_ex((host, port))
                if rc not in (0, errno.EINPROGRESS):
                    raise RuntimeError(f"connect failed: {errno.errorcode.get(rc, rc)}")
                wave[sock] = [0]  # replies received
                sel.register(sock, selectors.EVENT_WRITE, wave[sock])
            remaining = connections
            while remaining:
                for key, mask in sel.select(timeout=10):
                    sock = key.fileobj
                    if sock is probe_sock:
                        try:
                            data = probe_sock.recv(1 << 16)
                        except BlockingIOError:
                            continue
                        probe_buf += data
                        if _count_frames(probe_buf) and probe_sent_at is not None:
                            latencies.append(time.perf_counter() - probe_sent_at)
                            _send_whole(probe_sock, probe_frame)
                            probe_sent_at = time.perf_counter()
                        continue
                    state = key.data
                    if mask & selectors.EVENT_WRITE:
                        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                        if err:
                            raise RuntimeError(
                                f"storm connect refused: {errno.errorcode.get(err, err)}"
                            )
                        _send_whole(sock, session_payload)
                        sel.modify(sock, selectors.EVENT_READ, state)
                        continue
                    try:
                        data = sock.recv(1 << 16)
                    except BlockingIOError:
                        continue
                    if not data:
                        raise RuntimeError("server closed a storm connection")
                    state[0] += len(data)
                    full = session_replies * 5  # bind reply = 5 bytes framed
                    if state[0] >= full:
                        sel.unregister(sock)
                        sock.close()
                        done_updates += session_replies
                        remaining -= 1
        elapsed = time.perf_counter() - started
    finally:
        sel.close()
        probe_sock.close()
    return done_updates / elapsed, latencies


def run_model(model: str, connections: int) -> tuple[float, float]:
    """(updates/second, p99 enquire seconds) for one front end."""
    iface = scale_interface()
    rpc = RpcServer()
    rpc.export(iface, InMemoryNames())
    value = b"x" * VALUE_BYTES
    # Pre-encoded frames: the driver measures the server, not client
    # marshalling.  client_id="" opts out of at-most-once (E5 measures
    # raw serving capacity; the at-most-once path has its own tests).
    session_payload = b"".join(
        _frame(encode_request(iface, "bind", (f"name-{n}", value)))
        for n in range(UPDATES_PER_SESSION)
    )
    probe_frame = _frame(encode_request(iface, "enquire", ("name-1",)))
    srv = start_front(model, rpc)
    try:
        rate, latencies = drive_storm(
            srv.host, srv.port, connections, TOTAL_UPDATES,
            session_payload, UPDATES_PER_SESSION, probe_frame,
        )
    finally:
        srv.stop()
    if not latencies:
        return rate, float("nan")
    latencies.sort()
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    return rate, p99


def test_e5_connection_scaling(benchmark, report):
    def run():
        results = {}
        for model in ("threaded", "eventloop"):
            for connections in CONNECTION_COUNTS:
                results[(model, connections)] = run_model(model, connections)
        return results

    results = once(benchmark, run)

    lines = []
    for connections in CONNECTION_COUNTS:
        th_rate, th_p99 = results[("threaded", connections)]
        ev_rate, ev_p99 = results[("eventloop", connections)]
        lines.append(
            f"{connections:4d} connections: "
            f"threaded {th_rate:8.0f} upd/s (p99 enquire {th_p99 * 1e3:7.2f} ms)   "
            f"eventloop {ev_rate:8.0f} upd/s (p99 {ev_p99 * 1e3:7.2f} ms)   "
            f"speedup {ev_rate / th_rate:5.2f}x"
        )
    speedup_256 = (
        results[("eventloop", 256)][0] / results[("threaded", 256)][0]
    )
    assert speedup_256 >= REQUIRED_SPEEDUP_AT_256, (
        f"event loop only {speedup_256:.2f}x the threaded server at 256 "
        f"connections (need {REQUIRED_SPEEDUP_AT_256}x)"
    )

    report(
        "E5d connection scaling under reconnect storms (wall clock)",
        lines,
        data={
            f"{model}_{connections}": {
                "updates_per_second": results[(model, connections)][0],
                "p99_enquire_seconds": results[(model, connections)][1],
            }
            for model in ("threaded", "eventloop")
            for connections in CONNECTION_COUNTS
        },
        metrics={
            "e5_conn_scale_speedup_256": metric(
                speedup_256, "x", direction="higher"
            ),
            "e5_conn_scale_eventloop_updates_per_s_256": metric(
                results[("eventloop", 256)][0], "1/s", direction="higher"
            ),
            "e5_conn_scale_eventloop_p99_enquire_ms_256": metric(
                results[("eventloop", 256)][1] * 1e3, "ms", direction="lower"
            ),
        },
    )
