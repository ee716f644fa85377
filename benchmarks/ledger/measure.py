"""Load generation and the arithmetic that turns samples into metrics.

All load comes from threads of the one benchmark process.  A *closed*
loop client sends its next op when the previous one returns; an *open*
loop client sends on a fixed schedule and times each op from the moment
it was due, so a stall is charged to every op that fell due during it.

A timed section is cut into one-second slices and a p50 or rate metric
is its **best** slice's value.  The noise on this kind of machine is one
sided: spells of a second or so, some minutes most of the time and other
minutes hardly ever, during which everything runs 20-50 % slower, over a
floor that does not move.  The median slice follows the machine's mood;
the quietest slice sits on the floor, which is what a code change moves.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from dataclasses import dataclass, field

from inputs import Inputs
from spans import SpanLog

_now = time.perf_counter
#: a client thread gives up after this many failed ops (a dead server
#: would otherwise be hammered until the deadline)
MAX_FAILURES = 100
_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: width of the slices the p50 and rate metrics pick their best from
FINE_SLICE_S = 1.0


class Book:
    """What each name was last acked as, shared by clients and the checks.

    ``version[idx]`` is the highest version acked, ``issued[idx]`` the
    highest handed to a bind that may still be in flight, ``current[idx]``
    the acked value itself.  One name is only ever bound by one thread.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.paths = inputs.paths
        self.current = [inputs.value(idx, 0) for idx in range(len(inputs))]
        self.version = [0] * len(inputs)
        self.issued = [0] * len(inputs)

    def raced_ok(self, idx: int, got: object, version_before: int) -> bool:
        """Whether a lookup that began at ``version_before`` may return ``got``.

        Only asked when ``got`` is not the acked value: it may then be a
        version a concurrent binder acked, or had in flight, meanwhile.
        """
        if not isinstance(got, dict) or not isinstance(got.get("created"), int):
            return False
        seen = got["created"]
        return (
            version_before <= seen <= self.issued[idx]
            and got == self.inputs.value(idx, seen)
        )


@dataclass
class Samples:
    """One client thread's record of a section."""

    lookup_t: list[float] = field(default_factory=list)
    lookup_d: list[float] = field(default_factory=list)
    bind_t: list[float] = field(default_factory=list)
    bind_d: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    user_bytes: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str) -> bool:
        """Count a failed op; returns whether the thread should give up."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)
        return self.failed >= MAX_FAILURES


def _wait_until(due: float) -> None:
    # Sleep to just short of the due time and spin the rest: on this kind
    # of machine a plain sleep overshoots by 0.15 ms at the median and by
    # milliseconds at the tail, all of which an open loop would charge to
    # the op.  The spin holds the interpreter lock for at most 0.3 ms per
    # op, about 3 % of a 100/s thread's time.
    left = due - _now()
    if left > 0.0003:
        time.sleep(left - 0.0003)
    while _now() < due:
        pass


def client_loop(
    client,
    stream: list[tuple[bool, int]],
    book: Book,
    limits: list[float],
    out: Samples,
    log: SpanLog | None,
    rate: float | None,
    start: float,
) -> None:
    """Drive ``client`` until ``limits[0]``; closed loop unless ``rate``.

    With a ``rate`` (ops/s) op *k* is due at ``start + k / rate`` and its
    latency runs from that moment; the section runner staggers the
    threads' ``start`` so that they do not all fall due together.
    ``limits`` is a one-element list so the runner can cut a run short by
    zeroing it.
    """
    lookup, bind = client.lookup, client.bind
    paths, current, version, issued = (
        book.paths, book.current, book.version, book.issued
    )
    make_value, user_bytes = book.inputs.value, book.inputs.user_bytes
    k = 0
    while True:
        is_bind, idx = stream[k % len(stream)]
        if is_bind:
            new_version = version[idx] + 1
            value = make_value(idx, new_version)
            issued[idx] = new_version
        else:
            version_before = version[idx]
        if rate is None:
            t0 = _now()
            if t0 >= limits[0]:
                return
        else:
            t0 = start + k / rate
            if t0 >= limits[0]:
                return
            _wait_until(t0)
            sent = _now()
            out.late.append(sent - t0)
        k += 1
        out.attempted += 1
        span = log.begin() if log is not None else 0
        began = _now() if log is not None else 0.0
        try:
            if is_bind:
                bind(paths[idx], value)
                ok = True
            else:
                got = lookup(paths[idx])
                ok = got == current[idx] or book.raced_ok(idx, got, version_before)
            error = "lookup returned a value never acked for that name"
        except Exception as exc:  # the op failed; the run goes on and reports it
            ok, error = False, f"{type(exc).__name__}: {exc}"
        t1 = _now()
        if log is not None:
            log.end(span, "bind" if is_bind else "lookup", began, t1)
        if not ok:
            if out.fail(error):
                return
            continue
        if is_bind:
            version[idx] = new_version
            current[idx] = value
            out.user_bytes += user_bytes(idx)
            out.bind_t.append(t0)
            out.bind_d.append(t1 - t0)
        else:
            out.lookup_t.append(t0)
            out.lookup_d.append(t1 - t0)


@dataclass
class Section:
    """The merged samples of one timed section.

    ``slices`` is the coarse cut (five per section, or one per checkpoint
    cycle) that tails and the checkpoint schedule use.
    """

    start: float
    seconds: float
    slices: int
    threads: list[Samples]
    checkpoint_s: list[float] = field(default_factory=list)
    cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.threads)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.threads)

    @property
    def binds(self) -> int:
        return sum(len(t.bind_d) for t in self.threads)

    @property
    def user_bytes(self) -> int:
        return sum(t.user_bytes for t in self.threads)

    def _sliced(self, kind: str, slices: int) -> list[list[float]]:
        cut: list[list[float]] = [[] for _ in range(slices)]
        width = self.seconds / slices
        for thread in self.threads:
            times = getattr(thread, kind + "_t")
            for t, d in zip(times, getattr(thread, kind + "_d")):
                k = int((t - self.start) / width)
                if 0 <= k < slices:
                    cut[k].append(d)
        return [part for part in cut if part]

    @property
    def _fine(self) -> int:
        return max(1, int(self.seconds / FINE_SLICE_S))

    @property
    def open_loop(self) -> bool:
        return any(t.late for t in self.threads)

    def p50_us(self, kind: str) -> tuple[float, int]:
        """The p50 of ``kind`` latencies: a closed loop's best slice.

        An open loop's is taken over the whole section: its ops are few,
        each runs cold after an idle gap, and what varies from slice to
        slice is that coldness, not interference.
        """
        slices = 1 if self.open_loop else self._fine
        cut = self._sliced(kind, slices)
        if not cut:
            return 0.0, 0
        return (
            min(statistics.median(part) for part in cut) * 1e6,
            sum(len(part) for part in cut),
        )

    def tail_us(self, kind: str, q: float) -> tuple[float, int]:
        """Median over the section's coarse slices of the slice's ``q`` quantile."""
        cut = [sorted(part) for part in self._sliced(kind, self.slices)]
        if not cut:
            return 0.0, 0
        value = statistics.median(quantile(part, q) for part in cut)
        return value * 1e6, sum(len(part) for part in cut)

    def ops_per_s(self) -> tuple[float, int]:
        """Completed ops per second: the best one-second slice of a closed loop.

        An open loop's count per slice is fixed by its schedule, so there
        the rate is the ops completed over the time it took to complete
        them, which falls when the generator cannot keep up.
        """
        if self.open_loop:
            done = [
                t + d
                for thread in self.threads
                for times, durations in (
                    (thread.lookup_t, thread.lookup_d), (thread.bind_t, thread.bind_d)
                )
                for t, d in zip(times, durations)
            ]
            return len(done) / (max(done) - self.start), len(done)
        width = self.seconds / self._fine
        counts = [0] * self._fine
        for thread in self.threads:
            for t in thread.lookup_t + thread.bind_t:
                k = int((t - self.start) / width)
                if 0 <= k < self._fine:
                    counts[k] += 1
        return max(counts) / width, sum(counts)

    def late_p99_us(self) -> float:
        late = sorted(x for t in self.threads for x in t.late)
        return quantile(late, 0.99) * 1e6 if late else 0.0


def quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_section(
    clients: list,
    streams: list[list[tuple[bool, int]]],
    book: Book,
    seconds: float,
    slices: int,
    log: SpanLog | None = None,
    rate: float | None = None,
    checkpoint=None,
) -> Section:
    """Run one client thread per ``clients`` entry for ``seconds``.

    With ``checkpoint`` (a callable) the calling thread checkpoints at
    the midpoint of each slice while the clients run, so every slice
    holds exactly one checkpoint's stall.
    """
    samples = [Samples() for _ in clients]
    start = _now() + 0.02  # every thread is past its start-up by then
    limits = [start + seconds]
    stagger = 0.0 if rate is None else 1.0 / rate / len(clients)
    threads = [
        threading.Thread(
            target=client_loop,
            args=(client, stream, book, limits, out, log, rate, start + i * stagger),
        )
        for i, (client, stream, out) in enumerate(zip(clients, streams, samples))
    ]
    section = Section(start, seconds, slices, samples)
    cpu0 = time.process_time()
    try:
        for thread in threads:
            thread.start()
        if checkpoint is not None:
            for k in range(slices):
                _wait_until(start + (k + 0.5) * seconds / slices)
                span = log.begin() if log is not None else 0
                t0 = _now()
                checkpoint()
                t1 = _now()
                if log is not None:
                    log.end(span, "checkpoint", t0, t1)
                section.checkpoint_s.append(t1 - t0)
    except BaseException:
        limits[0] = 0.0  # cut the clients short; they stop at their next op
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    section.cpu_s = time.process_time() - cpu0
    return section


# -- the processes behind the numbers ------------------------------------------


def peak_rss_mb(pids: list[int]) -> float:
    """Peak resident set of this process plus ``pids``, in MB."""
    total_kb = 0
    for pid in [os.getpid(), *pids]:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass  # the child is already gone; it no longer holds memory
    return total_kb / 1024.0


def cpu_seconds(pids: list[int]) -> float:
    """User plus system CPU time consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        except OSError:
            pass
    return total / _CLK_TCK


def per_call_us(fn, calls: int, batches: int = 5) -> float:
    """Mean microseconds of one ``fn()`` in the quickest of ``batches`` batches."""
    best = float("inf")
    for _ in range(batches):
        t0 = _now()
        for _ in range(calls):
            fn()
        best = min(best, (_now() - t0) / calls)
    return best * 1e6
