"""The database health state machine for runtime storage faults.

The paper's availability story treats media failure as something recovery
handles *offline*; a live server needs a policy too.  The policy here is a
one-way state machine:

``HEALTHY``
    Normal operation.  Media faults on the log path are retried a bounded
    number of times (a transient fault costs a retry, nothing else).

``DEGRADED_READ_ONLY``
    A fault persisted: the log is sealed and updates are refused with
    :class:`~repro.core.errors.DatabaseDegraded`.  Enquiries keep being
    served from virtual memory — the paper's core property that reads
    never need the disk.  No local copy is made: the way back is the
    sealed log on the primary (fsck, repair, restart) or a replica.

``RECOVERING``
    The paper's way back: "restore the database from another replica".
    A degraded node under a
    :class:`~repro.nameserver.recover.ReplicaRecoverer` enters this state
    while a peer's checkpoint and log tail stream in; the single forward
    edge out of it is :meth:`recovered` (→ ``HEALTHY``), and a recovery
    that itself faults falls back via :meth:`recovery_failed`.

The fault transitions are one-way (the process never un-degrades itself)
and idempotent under concurrency: only the first caller records the
transition.  The only path back to ``HEALTHY`` is an explicit replica
recovery — never a spontaneous retry.

Metrics (in the database's registry):

* ``db_health_state`` — gauge: 0 healthy, 1 degraded read-only,
  3 recovering;
* ``storage_faults_total{op}`` — every media fault seen, including retried
  ones;
* ``db_degradations_total{reason}`` — transitions out of HEALTHY.

Faulted operations are also annotated on the active trace span (a
``storage_fault`` event), so a trace of a degraded update shows exactly
which disk operation failed.

Every observation and transition is additionally recorded as a
first-class event on the database's :class:`~repro.obs.flight.\
FlightRecorder` (``storage_fault``, ``health_transition``), so the
node's black box holds the full causal story, not just aggregated
counters.
"""

from __future__ import annotations

import threading

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import current_span

HEALTHY = "healthy"
DEGRADED_READ_ONLY = "degraded_read_only"
RECOVERING = "recovering"

#: numeric encoding used by the ``db_health_state`` gauge
HEALTH_CODES = {HEALTHY: 0, DEGRADED_READ_ONLY: 1, RECOVERING: 3}


class HealthMonitor:
    """Tracks one database's health state and publishes it as metrics."""

    def __init__(
        self, registry: MetricsRegistry, flight: FlightRecorder | None = None
    ) -> None:
        self._lock = threading.Lock()
        self.state = HEALTHY
        self.cause: str | None = None
        self.flight = flight
        self._gauge = registry.gauge(
            "db_health_state",
            "database health: 0 healthy, 1 degraded read-only, 3 recovering",
        )
        self._faults = registry.counter(
            "storage_faults_total",
            "runtime media faults seen on the storage path",
            labelnames=("op",),
        )
        self._degradations = registry.counter(
            "db_degradations_total",
            "transitions out of the HEALTHY state",
            labelnames=("reason",),
        )
        self._gauge.set(HEALTH_CODES[HEALTHY])

    # -- observations ----------------------------------------------------------

    def note_fault(self, op: str, exc: BaseException) -> None:
        """Record one media fault (retried or fatal) on operation ``op``."""
        self._faults.labels(op=op).inc()
        if self.flight is not None:
            self.flight.record(
                "storage_fault",
                op=op,
                error=type(exc).__name__,
                detail=str(exc),
            )
        span = current_span()
        if span is not None:
            span.event("storage_fault", op=op, error=type(exc).__name__)

    # -- transitions -----------------------------------------------------------

    def degrade(self, cause: str, reason: str = "media_fault") -> bool:
        """HEALTHY → DEGRADED_READ_ONLY; returns whether *this* call won.

        Only the winner records the transition; losers observe the state
        and refuse.
        """
        with self._lock:
            if self.state != HEALTHY:
                return False
            self.state = DEGRADED_READ_ONLY
            self.cause = cause
        self._gauge.set(HEALTH_CODES[DEGRADED_READ_ONLY])
        self._degradations.labels(reason=reason).inc()
        if self.flight is not None:
            self.flight.record(
                "health_transition",
                from_state=HEALTHY,
                to_state=DEGRADED_READ_ONLY,
                cause=cause,
                reason=reason,
            )
        return True

    # -- recovery --------------------------------------------------------------

    def begin_recovery(self, source: str) -> bool:
        """DEGRADED_READ_ONLY → RECOVERING; False if not eligible.

        ``source`` names the peer (or mechanism) performing the repair;
        it lands in the flight record so the black box shows who healed
        us.  A HEALTHY monitor refuses — recovery of a healthy node would
        silently discard its unpropagated local updates.
        """
        with self._lock:
            if self.state != DEGRADED_READ_ONLY:
                return False
            self.state = RECOVERING
            self.cause = f"recovering from {source}"
        self._gauge.set(HEALTH_CODES[RECOVERING])
        if self.flight is not None:
            self.flight.record(
                "health_transition",
                from_state=DEGRADED_READ_ONLY,
                to_state=RECOVERING,
                cause=self.cause,
            )
        return True

    def recovered(self) -> bool:
        """RECOVERING → HEALTHY: the replica repair completed and cut over."""
        with self._lock:
            if self.state != RECOVERING:
                return False
            self.state = HEALTHY
            self.cause = None
        self._gauge.set(HEALTH_CODES[HEALTHY])
        if self.flight is not None:
            self.flight.record(
                "health_transition",
                from_state=RECOVERING,
                to_state=HEALTHY,
                cause="replica_recovery",
            )
        return True

    def recovery_failed(self, cause: str) -> bool:
        """RECOVERING → DEGRADED_READ_ONLY: the repair itself faulted.

        The node is no worse off than before the attempt — the staged
        files are invisible to restarts — so it returns to degraded
        read-only, and a later attempt may succeed.
        """
        with self._lock:
            if self.state != RECOVERING:
                return False
            self.state = DEGRADED_READ_ONLY
            self.cause = cause
        self._gauge.set(HEALTH_CODES[DEGRADED_READ_ONLY])
        if self.flight is not None:
            self.flight.record(
                "health_transition",
                from_state=RECOVERING,
                to_state=DEGRADED_READ_ONLY,
                cause=cause,
            )
        return True

    # -- views -----------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        return self.state == HEALTHY

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {"state": self.state, "cause": self.cause}
