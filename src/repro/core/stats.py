"""Instrumentation for the database core.

Every quantity the paper reports in section 5 is measured here: counts of
enquiries/updates/checkpoints/restarts, and the per-phase breakdown of an
update (explore, pickle, log write, modify) that reproduces the paper's
"54 msecs = 6 + 22 + 20 + 6" decomposition.  Timings are taken on whatever
clock the database runs on, so under a :class:`~repro.sim.clock.SimClock`
they are modelled 1987 times and under a wall clock they are real times.

Since the observability subsystem (:mod:`repro.obs`) landed, the numbers
live in a :class:`~repro.obs.metrics.MetricsRegistry` and this class is a
*view*: the ``record_*`` methods write registry metrics and the familiar
attributes (``stats.updates``, ``stats.log_bytes_written``…) read them
back, so each quantity has exactly one source of truth and shows up in
the Prometheus/JSON exports for free.  The historical API — every field,
method, and ``snapshot()`` key — is preserved.

It is also the core's one instrumentation **seam**.  The update protocol
in :mod:`repro.core.database` marks where each phase begins on a
per-update :class:`Meter` and says what work it did with
:meth:`DatabaseStats.charge`; the clock laps, the phase spans and the 1987
cost model all hang off those two calls, so the protocol itself contains
no timing, tracing or simulation code.  Recovery is handed the same
object instead of a clock, a cost model, a registry and a flight recorder.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, SIZE_BUCKETS
from repro.obs.tracing import NULL_SPAN, maybe_span
from repro.sim.clock import Clock
from repro.sim.costmodel import NULL_COST_MODEL, CostModel

_PHASES = ("explore", "pickle", "log_write", "apply")


@dataclass
class PhaseBreakdown:
    """Accumulated and last-observed durations of one update's phases."""

    explore_seconds: float = 0.0
    pickle_seconds: float = 0.0
    log_write_seconds: float = 0.0
    apply_seconds: float = 0.0

    def total(self) -> float:
        return (
            self.explore_seconds
            + self.pickle_seconds
            + self.log_write_seconds
            + self.apply_seconds
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "explore_seconds": self.explore_seconds,
            "pickle_seconds": self.pickle_seconds,
            "log_write_seconds": self.log_write_seconds,
            "apply_seconds": self.apply_seconds,
            "total_seconds": self.total(),
        }


class Meter:
    """One operation's span and clock laps, handed out by :meth:`DatabaseStats.meter`.

    Entering the meter makes its span (if there is one) the thread's
    active span.  :meth:`phase` then delimits the operation's phases:
    each call laps the clock into ``laps`` and, when the operation is
    being traced, closes the running phase's span and opens the next
    as a child.  The parent span is resolved once, when the meter is
    made; an untraced operation does no span work at all.
    """

    __slots__ = ("_stats", "_now", "_span", "_phase", "_mark", "laps")

    def __init__(self, stats: "DatabaseStats", span) -> None:
        self._stats = stats
        self._now = stats.clock.now
        self._span = span
        self._phase = None
        self._mark: float | None = None
        #: seconds of each phase ended so far, in order
        self.laps: list[float] = []

    def __enter__(self) -> "Meter":
        if self._span is not None:
            self._span.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._span is not None:
            if self._phase is not None:
                self._phase.__exit__(*exc_info)
            self._span.__exit__(*exc_info)

    def event(self, name: str) -> None:
        """Note a point event on the operation's span."""
        if self._span is not None:
            self._span.event(name)

    def phase(self, name: str | None = None, **attrs: object) -> None:
        """End the running phase, if any, and start phase ``name``.

        With no ``name`` the clock keeps running but no span is opened:
        the first such call starts the laps, a later one ends a phase
        without starting another.
        """
        now = self._now()
        if self._mark is not None:
            self.laps.append(now - self._mark)
        self._mark = now
        if self._span is not None:
            if self._phase is not None:
                self._phase.__exit__(None, None, None)
            self._phase = (
                self._span.child(name, **attrs).__enter__() if name else None
            )

    def elapsed(self) -> float:
        """Seconds on the clock since the running phase started."""
        return self._now() - self._mark

    def record_update(
        self, entries: list, payloads: list[bytes], commit_wait_seconds: float
    ) -> None:
        """End the running phase and record the update's log entries.

        The first four laps are the explore, pickle, log-write and apply
        phases of the whole plan; each entry is recorded with an equal
        share of them and of the one shared commit wait.
        """
        self.phase()
        n = len(entries)
        explore, pickle, log_write, apply = (lap / n for lap in self.laps[:4])
        wait = commit_wait_seconds / n
        for entry, payload in zip(entries, payloads):
            self._stats.record_update(
                explore, pickle, log_write + wait, apply,
                entry.length, len(payload), commit_wait_seconds=wait,
            )


class DatabaseStats:
    """Counters and timing accumulators for one database instance.

    A thin view over ``registry`` (one is created if not supplied, so
    standalone construction keeps working).  ``_lock`` serialises the
    multi-metric record methods against ``snapshot()`` so a snapshot
    never shows an update half-recorded.

    ``clock`` (the registry's by default) is what :meth:`meter` laps and
    what ``cost_model`` is charged to; ``tracer`` roots the spans of
    operations no traced caller is waiting on; ``flight`` is carried for
    recovery's progress events.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        clock: Clock | None = None,
        cost_model: CostModel | None = None,
        tracer=None,
        flight=None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = clock if clock is not None else self.registry.clock
        # A free model is never called: on a wall clock nothing
        # simulation-shaped is left on the update path.
        self._model = None if cost_model in (None, NULL_COST_MODEL) else cost_model
        self.tracer = tracer
        self.flight = flight
        self._lock = threading.Lock()
        r = self.registry
        self._enquiries = r.counter(
            "db_enquiries_total", "Read-only enquiries served."
        ).labels()
        self._updates = r.counter(
            "db_updates_total", "Updates applied (and logged)."
        ).labels()
        self._updates_rejected = r.counter(
            "db_updates_rejected_total", "Updates rejected before logging."
        ).labels()
        self._checkpoints = r.counter(
            "db_checkpoints_total", "Checkpoints written."
        ).labels()
        self._restarts = r.counter(
            "db_restarts_total", "Recoveries (database opens with replay)."
        ).labels()
        self._entries_replayed = r.counter(
            "db_entries_replayed_total", "Log entries replayed during recovery."
        ).labels()
        self._log_entries_written = r.counter(
            "db_log_entries_written_total", "Log entries appended."
        ).labels()
        self._log_bytes_written = r.counter(
            "db_log_bytes_written_total", "Bytes appended to the log."
        ).labels()
        self._pickle_bytes_written = r.counter(
            "db_pickle_bytes_written_total", "Pickled payload bytes logged."
        ).labels()
        self._checkpoint_bytes_written = r.counter(
            "db_checkpoint_bytes_written_total", "Bytes written by checkpoints."
        ).labels()
        self._last_checkpoint_seconds = r.gauge(
            "db_last_checkpoint_seconds", "Duration of the last checkpoint."
        ).labels()
        self._last_restart_seconds = r.gauge(
            "db_last_restart_seconds", "Duration of the last recovery."
        ).labels()
        self._checkpoint_seconds = r.histogram(
            "db_checkpoint_seconds", "Checkpoint durations."
        ).labels()
        self._restart_seconds = r.histogram(
            "db_restart_seconds", "Recovery durations."
        ).labels()
        self._log_fsyncs = r.counter(
            "db_log_fsyncs_total",
            "Commit-point fsyncs on the log (one per immediate-mode update, "
            "one per coordinator batch); checkpoint-file fsyncs not included.",
        ).labels()
        self._fsync_seconds = r.histogram(
            "db_fsync_seconds", "Log fsync durations at commit points."
        ).labels()
        self._commit_batches = r.counter(
            "db_commit_batch_total",
            "Commit fsyncs by how many log entries each covered.",
            labelnames=("size",),
        )
        self._commit_batch_size = r.histogram(
            "db_commit_batch_size",
            "Distribution of entries per commit fsync.",
            buckets=SIZE_BUCKETS,
        ).labels()
        self._max_commit_batch = r.gauge(
            "db_max_commit_batch", "Largest commit batch seen."
        ).labels()
        self._commit_wait_seconds = r.counter(
            "db_commit_wait_seconds_total",
            "Seconds updates spent blocked on the commit barrier.",
        ).labels()
        self._last_commit_wait_seconds = r.gauge(
            "db_last_commit_wait_seconds", "Commit wait of the last update."
        ).labels()
        self._relaxed_updates = r.counter(
            "db_relaxed_updates_total",
            "Updates that returned before their fsync (durability=relaxed).",
        ).labels()
        self._update_seconds = r.histogram(
            "db_update_seconds", "End-to-end update durations (sum of phases)."
        ).labels()
        self._phase_seconds = r.counter(
            "db_update_phase_seconds_total",
            "Cumulative update time by phase (explore/pickle/log_write/apply).",
            labelnames=("phase",),
        )
        self._last_phase_seconds = r.gauge(
            "db_update_phase_seconds_last",
            "Phase times of the last update.",
            labelnames=("phase",),
        )
        # Materialise the per-phase series now so exports show them at zero.
        self._phase_totals = {p: self._phase_seconds.labels(p) for p in _PHASES}
        self._phase_lasts = {p: self._last_phase_seconds.labels(p) for p in _PHASES}

    # -- recorded quantities, read back from the registry --------------------

    @property
    def enquiries(self) -> int:
        return int(self._enquiries.value)

    @property
    def updates(self) -> int:
        return int(self._updates.value)

    @property
    def updates_rejected(self) -> int:
        return int(self._updates_rejected.value)

    @property
    def checkpoints(self) -> int:
        return int(self._checkpoints.value)

    @property
    def restarts(self) -> int:
        return int(self._restarts.value)

    @property
    def entries_replayed(self) -> int:
        return int(self._entries_replayed.value)

    @property
    def log_entries_written(self) -> int:
        return int(self._log_entries_written.value)

    @property
    def log_bytes_written(self) -> int:
        return int(self._log_bytes_written.value)

    @property
    def pickle_bytes_written(self) -> int:
        return int(self._pickle_bytes_written.value)

    @property
    def checkpoint_bytes_written(self) -> int:
        return int(self._checkpoint_bytes_written.value)

    @property
    def last_checkpoint_seconds(self) -> float:
        return self._last_checkpoint_seconds.value

    @property
    def last_restart_seconds(self) -> float:
        return self._last_restart_seconds.value

    @property
    def log_fsyncs(self) -> int:
        return int(self._log_fsyncs.value)

    @property
    def commit_batch_histogram(self) -> dict[int, int]:
        """How many entries each commit fsync covered: {batch size: count}."""
        return {
            int(series.labels[0]): int(series.value)
            for series in sorted(
                self._commit_batches.series(), key=lambda s: int(s.labels[0])
            )
        }

    @property
    def max_commit_batch(self) -> int:
        return int(self._max_commit_batch.value)

    @property
    def commit_wait_seconds(self) -> float:
        return self._commit_wait_seconds.value

    @property
    def last_commit_wait_seconds(self) -> float:
        return self._last_commit_wait_seconds.value

    @property
    def relaxed_updates(self) -> int:
        return int(self._relaxed_updates.value)

    @property
    def cumulative(self) -> PhaseBreakdown:
        return PhaseBreakdown(*(self._phase_totals[p].value for p in _PHASES))

    @property
    def last_update(self) -> PhaseBreakdown:
        return PhaseBreakdown(*(self._phase_lasts[p].value for p in _PHASES))

    # -- the seam: spans, laps and the cost model -----------------------------

    def meter(self, name: str, **attrs: object) -> Meter:
        """A :class:`Meter` for one operation, under a span called ``name``.

        The span is a child of the thread's active span, else a root on
        ``tracer``, else (or when that root is sampled out) absent.
        """
        span = maybe_span(self.tracer, name, **attrs)
        return Meter(self, None if span is NULL_SPAN else span)

    def charge(self, work: str, *nbytes: int) -> None:
        """Charge the cost model's price of ``work`` to the clock.

        ``work`` names a :class:`~repro.sim.costmodel.CostModel` charge:
        ``"enquiry"``, ``"explore"``, ``"modify"``, or — with the byte
        count — ``"pickle"`` / ``"unpickle"``.
        """
        if self._model is not None:
            getattr(self._model, "charge_" + work)(self.clock, *nbytes)

    # -- recording ------------------------------------------------------------

    def record_enquiry(self) -> None:
        self._enquiries.inc()

    def record_rejected_update(self) -> None:
        self._updates_rejected.inc()

    def record_update(
        self,
        explore_seconds: float,
        pickle_seconds: float,
        log_write_seconds: float,
        apply_seconds: float,
        entry_bytes: int,
        payload_bytes: int,
        commit_wait_seconds: float = 0.0,
    ) -> None:
        phases = (explore_seconds, pickle_seconds, log_write_seconds, apply_seconds)
        with self._lock:
            self._updates.inc()
            self._log_entries_written.inc()
            self._log_bytes_written.inc(entry_bytes)
            self._pickle_bytes_written.inc(payload_bytes)
            self._commit_wait_seconds.inc(commit_wait_seconds)
            self._last_commit_wait_seconds.set(commit_wait_seconds)
            self._update_seconds.observe(sum(phases))
            for phase, seconds in zip(_PHASES, phases):
                self._phase_totals[phase].inc(seconds)
                self._phase_lasts[phase].set(seconds)

    def record_commit_batch(self, size: int) -> None:
        """One commit fsync just covered ``size`` log entries."""
        with self._lock:
            self._log_fsyncs.inc()
            self._commit_batches.labels(size).inc()
            self._commit_batch_size.observe(size)
            if size > self._max_commit_batch.value:
                self._max_commit_batch.set(size)

    def record_fsync(self, seconds: float) -> None:
        """One log fsync took ``seconds`` (latency only; counts come from
        :meth:`record_commit_batch`, the commit-point source of truth)."""
        self._fsync_seconds.observe(seconds)

    def record_relaxed_updates(self, count: int = 1) -> None:
        self._relaxed_updates.inc(count)

    def record_checkpoint(self, seconds: float, nbytes: int) -> None:
        with self._lock:
            self._checkpoints.inc()
            self._last_checkpoint_seconds.set(seconds)
            self._checkpoint_seconds.observe(seconds)
            self._checkpoint_bytes_written.inc(nbytes)

    def record_restart(self, seconds: float, entries_replayed: int) -> None:
        with self._lock:
            self._restarts.inc()
            self._last_restart_seconds.set(seconds)
            self._restart_seconds.observe(seconds)
            self._entries_replayed.inc(entries_replayed)

    # -- derived views ---------------------------------------------------------

    def mean_update_breakdown(self) -> PhaseBreakdown:
        """Average per-update phase times over the life of the instance."""
        with self._lock:
            n = self.updates
            if not n:
                return PhaseBreakdown()
            return PhaseBreakdown(
                *(self._phase_totals[p].value / n for p in _PHASES)
            )

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            histogram = self.commit_batch_histogram
            fsyncs = sum(histogram.values())
            return {
                "enquiries": self.enquiries,
                "updates": self.updates,
                "updates_rejected": self.updates_rejected,
                "checkpoints": self.checkpoints,
                "restarts": self.restarts,
                "entries_replayed": self.entries_replayed,
                "log_entries_written": self.log_entries_written,
                "log_bytes_written": self.log_bytes_written,
                "pickle_bytes_written": self.pickle_bytes_written,
                "checkpoint_bytes_written": self.checkpoint_bytes_written,
                "last_checkpoint_seconds": self.last_checkpoint_seconds,
                "last_restart_seconds": self.last_restart_seconds,
                "log_fsyncs": self.log_fsyncs,
                "commit_batch_histogram": histogram,
                "max_commit_batch": self.max_commit_batch,
                "mean_commit_batch": (
                    sum(s * n for s, n in histogram.items()) / fsyncs if fsyncs else 0.0
                ),
                "commit_wait_seconds": self.commit_wait_seconds,
                "last_commit_wait_seconds": self.last_commit_wait_seconds,
                "relaxed_updates": self.relaxed_updates,
                "last_update": self.last_update.as_dict(),
            }
