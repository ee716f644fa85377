"""Management interface: the paper's server administration surface.

Section 6 counts, among the "other parts of the name server",
"management interfaces to the servers".  This module is that interface:
a second RPC interface exported alongside the name service proper, giving
operators remote access to statistics, checkpoint control, replication
status and synchronisation triggers — without touching the data plane.

    manager = ManagementService(replica)
    rpc.export(MANAGEMENT_INTERFACE, manager)

Client side, :class:`RemoteManagement` wraps the generated proxy.
"""

from __future__ import annotations

from repro.nameserver.server import NameServer
from repro.obs.export import to_prometheus
from repro.rpc import (
    Bool,
    DictOf,
    Float,
    Int,
    Interface,
    Pickled,
    RpcClient,
    Str,
    Transport,
)


class ManagementService:
    """The server-side implementation, wrapping a NameServer/Replica."""

    def __init__(
        self,
        server: NameServer,
        slow_log=None,
        profiler=None,
        recover_hook=None,
    ) -> None:
        self.server = server
        self.slow_log = slow_log
        #: optional :class:`~repro.obs.profiler.SamplingProfiler`: when
        #: attached, :meth:`profile` serves on-demand flame stacks.
        self.profiler = profiler
        #: optional zero-argument callable that rebuilds this node's
        #: replica from its peers and returns a report dict; wired by the
        #: serving :class:`~repro.nameserver.serve.Node` so operators can
        #: trigger staged replica recovery over RPC.
        self.recover_hook = recover_hook

    # -- status -----------------------------------------------------------------

    def status(self) -> dict:
        """A one-call health summary."""
        db = self.server.db
        status = {
            "replica_id": self.server.replica_id,
            "version": db.version,
            "names": self.server.count(),
            "log_bytes": db.log_size(),
            "entries_since_checkpoint": db.entries_since_checkpoint,
            "clock": db.clock.now(),
            "health": db.health,
        }
        peer_status = getattr(self.server, "peer_status", None)
        if peer_status is not None:
            status["peers"] = peer_status()
        return status

    def health(self) -> dict:
        """The storage health state machine: state, cause, pending retry.

        ``state`` is ``"healthy"``, ``"degraded_read_only"`` (updates
        refused, enquiries still served; see the OPERATIONS runbook) or
        ``"recovering"`` (a replica repair is streaming in).
        """
        return self.server.db.health_detail()

    def statistics(self) -> dict:
        """The full counter snapshot (enquiries, updates, timings…)."""
        return self.server.stats.snapshot()

    def lock_statistics(self) -> dict:
        return self.server.db.lock.stats.snapshot()

    def version(self) -> int:
        return self.server.db.version

    def log_bytes(self) -> int:
        return self.server.db.log_size()

    def estimated_restart_seconds(self, per_entry_seconds: float) -> float:
        """Worst-case restart estimate at a given replay cost."""
        db = self.server.db
        return 20.0 + db.entries_since_checkpoint * per_entry_seconds

    # -- control ----------------------------------------------------------------

    def force_checkpoint(self) -> int:
        """Run a checkpoint now; returns the new version number."""
        return self.server.checkpoint()

    def replication_vector(self) -> dict[str, int]:
        return self.server.summary()

    def propagate(self) -> int:
        """Push pending updates to peers (replicas only); returns count."""
        propagate = getattr(self.server, "propagate", None)
        if propagate is None:
            return 0
        return propagate()

    def is_replica(self) -> bool:
        return hasattr(self.server, "sync_from")

    def recover(self) -> dict:
        """Rebuild this node's replica from its peers; returns a report.

        Runs the staged :class:`~repro.nameserver.recover.ReplicaRecoverer`
        via the hook the serving node wired in: snapshot shipping, log-tail
        catch-up, atomic cutover.  ``{"ok": False, "error": ...}`` when no
        hook is attached (an embedded server without peers) or recovery
        failed; on success the recovery report's fields are inlined.
        """
        if self.recover_hook is None:
            return {
                "ok": False,
                "error": "recovery is not wired on this server "
                "(no peers, or not running under serve.Node)",
            }
        try:
            report = self.recover_hook()
        except Exception as exc:  # noqa: BLE001 - answer, don't kill the RPC
            return {"ok": False, "error": repr(exc)}
        return {"ok": True, **dict(report)}

    def recovery_status(self) -> dict:
        """Where replica recovery stands: stage, health, resumable state."""
        from repro.nameserver.recover import (
            RECOVERY_STAGES,
            RECOVERY_STATE_FILE,
            STAGE_CODES,
        )

        db = self.server.db
        stage = "idle"
        family = db.registry.get("recovery_stage")
        if family is not None:
            code = int(family.value)
            names = {v: k for k, v in STAGE_CODES.items()}
            stage = names.get(code, "idle")
        resumable = False
        try:
            resumable = db.fs.exists(RECOVERY_STATE_FILE)
        except Exception:  # noqa: BLE001 - a faulted fs answers "unknown"
            pass
        return {
            "health": db.health,
            "stage": stage,
            "stages": list(RECOVERY_STAGES),
            "resumable": resumable,
        }

    # -- observability ----------------------------------------------------------

    def metrics_text(self) -> str:
        """The node's full metrics registry in Prometheus text format."""
        return to_prometheus(self.server.db.registry.snapshot())

    def metrics(self) -> dict:
        """The registry snapshot as a structure (counters, histograms…)."""
        return self.server.db.registry.snapshot()

    def last_trace_id(self) -> str:
        """Newest trace id in the server tracer's ring ("" when none)."""
        tracer = self.server.db.tracer
        if tracer is None:
            return ""
        return tracer.last_trace_id() or ""

    def trace_spans(self, trace_id: str) -> list:
        """Finished span dicts of one trace, for cross-process assembly.

        The caller merges these with its own client-side spans (they
        share the propagated trace id) via
        :func:`repro.obs.export.merge_trees`.  An empty ``trace_id``
        drains the *whole* ring — how the coordinator's
        :class:`~repro.obs.collect.ClusterTraceCollector` pulls every
        node's spans in one call.
        """
        tracer = self.server.db.tracer
        if tracer is None:
            return []
        wanted = trace_id if trace_id else None
        return [span.to_dict() for span in tracer.finished_spans(wanted)]

    def slow_ops(self) -> list:
        """The retained over-threshold spans, oldest first."""
        if self.slow_log is None:
            return []
        return self.slow_log.entries()

    def profile(self, seconds: float) -> str:
        """Collapsed flame stacks for operators (``""`` = no profiler).

        With a continuously-running profiler attached, ``seconds <= 0``
        returns what it has accumulated so far; a positive ``seconds``
        takes a fresh inline burst of samples before answering (also the
        only mode that works when the profiler thread is not running).
        """
        if self.profiler is None:
            return ""
        if seconds > 0:
            self.profiler.sample_for(seconds)
        return self.profiler.collapsed()

    def flight_events(self) -> list:
        """The node's retained flight-recorder events, oldest first."""
        flight = getattr(self.server.db, "flight", None)
        if flight is None:
            return []
        return flight.snapshot()


MANAGEMENT_INTERFACE = Interface("Management", version=1)
MANAGEMENT_INTERFACE.method("status", returns=Pickled())
MANAGEMENT_INTERFACE.method("health", returns=Pickled())
MANAGEMENT_INTERFACE.method("statistics", returns=Pickled())
MANAGEMENT_INTERFACE.method("lock_statistics", returns=Pickled())
MANAGEMENT_INTERFACE.method("version", returns=Int)
MANAGEMENT_INTERFACE.method("log_bytes", returns=Int)
MANAGEMENT_INTERFACE.method(
    "estimated_restart_seconds",
    params=[("per_entry_seconds", Float)],
    returns=Float,
)
MANAGEMENT_INTERFACE.method("force_checkpoint", returns=Int)
MANAGEMENT_INTERFACE.method("replication_vector", returns=DictOf(Str, Int))
MANAGEMENT_INTERFACE.method("propagate", returns=Int)
MANAGEMENT_INTERFACE.method("is_replica", returns=Bool)
MANAGEMENT_INTERFACE.method("recover", returns=Pickled())
MANAGEMENT_INTERFACE.method("recovery_status", returns=Pickled())
MANAGEMENT_INTERFACE.method("metrics_text", returns=Str)
MANAGEMENT_INTERFACE.method("metrics", returns=Pickled())
MANAGEMENT_INTERFACE.method("last_trace_id", returns=Str)
MANAGEMENT_INTERFACE.method(
    "trace_spans", params=[("trace_id", Str)], returns=Pickled()
)
MANAGEMENT_INTERFACE.method("slow_ops", returns=Pickled())
MANAGEMENT_INTERFACE.method(
    "profile", params=[("seconds", Float)], returns=Str
)
MANAGEMENT_INTERFACE.method("flight_events", returns=Pickled())


class RemoteManagement:
    """Typed client facade over the generated management stubs."""

    def __init__(self, transport: Transport) -> None:
        self._client = RpcClient(MANAGEMENT_INTERFACE, transport)
        proxy = self._client.proxy()
        # The facade is one-to-one; bind the stubs directly.
        self.status = proxy.status
        self.health = proxy.health
        self.statistics = proxy.statistics
        self.lock_statistics = proxy.lock_statistics
        self.version = proxy.version
        self.log_bytes = proxy.log_bytes
        self.estimated_restart_seconds = proxy.estimated_restart_seconds
        self.force_checkpoint = proxy.force_checkpoint
        self.replication_vector = proxy.replication_vector
        self.propagate = proxy.propagate
        self.is_replica = proxy.is_replica
        self.recover = proxy.recover
        self.recovery_status = proxy.recovery_status
        self.metrics_text = proxy.metrics_text
        self.metrics = proxy.metrics
        self.last_trace_id = proxy.last_trace_id
        self.trace_spans = proxy.trace_spans
        self.slow_ops = proxy.slow_ops
        self.profile = proxy.profile
        self.flight_events = proxy.flight_events

    def close(self) -> None:
        self._client.close()
