"""The flight recorder: an always-on black box of structural events.

Metrics aggregate and traces sample; neither remembers *what happened,
in order* when a node dies.  The flight recorder fills that gap: a
thread-safe, bounded ring of structured events fed from the existing
instrumentation points — commit-pipeline fsyncs, log-tail repairs, RPC
retries, circuit-breaker flips, health-state transitions, fault
injections, checkpoint switches — cheap enough to leave on in
production (one lock, one dict append, no I/O).

When something goes wrong the ring is *dumped*: a versioned JSON
document (``format: "repro-flight-v1"``) written to the node's data
directory on SIGTERM (see :mod:`repro.nameserver.serve`) or by the
cluster supervisor before it kills a shard process.  A degraded node
writes nothing to its failing device: its ring stays readable in memory
over the ``flight_events`` management RPC.  ``tools/postmortem.py``
reconstructs a merged timeline from the dump plus exported trace spans
and the slow-op log.

Event schema (one JSON object per event)::

    {"seq": 17,                  # monotonically increasing, never reused
     "time": 12.875,             # the recorder's clock (SimClock or wall)
     "kind": "health_transition",
     "thread": "Thread-3",
     "fields": {...}}            # kind-specific, JSON-scalar values

``docs/FORMATS.md`` documents the dump envelope; the established kinds
are listed there too.
"""

from __future__ import annotations

import json
import threading
from collections import deque

from repro.sim.clock import Clock, WallClock

#: the dump envelope's ``format`` tag; bump on incompatible change
FLIGHT_FORMAT = "repro-flight-v1"

#: default dump file name, written into the node's data directory
BLACKBOX_FILE = "blackbox.json"


def _scalar(value: object) -> object:
    """Coerce one field value to a JSON scalar (events must always dump)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class FlightRecorder:
    """A bounded, thread-safe ring of structured events.

    ``capacity`` bounds memory; once full, the oldest events are dropped
    (and counted in :attr:`dropped` so a dump is honest about what it no
    longer holds).  ``clock`` follows the package-wide rule: inject a
    :class:`~repro.sim.clock.SimClock` and event times are modelled
    seconds, matching metrics and traces from the same node.
    """

    def __init__(self, clock: Clock | None = None, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("flight-recorder capacity counts from 1")
        self.clock = clock if clock is not None else WallClock()
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.dropped = 0

    # -- recording -----------------------------------------------------------

    def record(self, kind: str, **fields: object) -> dict:
        """Append one event; returns the recorded dict (already stamped)."""
        payload = {name: _scalar(value) for name, value in fields.items()}
        time = self.clock.now()
        thread = threading.current_thread().name
        with self._lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "time": time,
                "kind": kind,
                "thread": thread,
                "fields": payload,
            }
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(event)
        return event

    # -- reading -------------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Events ever recorded (≥ ``len(snapshot())`` once the ring wraps)."""
        with self._lock:
            return self._seq

    def snapshot(self) -> list[dict]:
        """The retained events, oldest first (copies: safe to mutate)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def events(self, kind: str | None = None) -> list[dict]:
        """Retained events, optionally filtered to one kind."""
        snap = self.snapshot()
        if kind is None:
            return snap
        return [event for event in snap if event["kind"] == kind]

    def kinds(self) -> dict[str, int]:
        """Retained event count per kind (a dump's one-line summary)."""
        counts: dict[str, int] = {}
        for event in self.snapshot():
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return counts

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # -- dumping -------------------------------------------------------------

    def dump(self) -> dict:
        """The versioned black-box document (JSON-able)."""
        with self._lock:
            events = [dict(event) for event in self._events]
            recorded = self._seq
            dropped = self.dropped
        return {
            "format": FLIGHT_FORMAT,
            "dumped_at": self.clock.now(),
            "recorded": recorded,
            "dropped": dropped,
            "events": events,
        }

    def dump_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.dump(), indent=indent, sort_keys=False)

    def dump_to(self, fs, name: str = BLACKBOX_FILE) -> str:
        """Write the black box durably into a database directory.

        ``fs`` is any :class:`~repro.storage.interface.FileSystem` —
        typically the node's data directory.  The write is fsynced so
        the dump survives the power loss that usually follows the event
        being recorded.  Returns the file name written.
        """
        fs.write(name, self.dump_json().encode("utf-8"))
        fs.fsync(name)
        try:
            fs.fsync_dir()
        except Exception:  # noqa: BLE001 - dir sync is best-effort here
            pass
        return name


def load_blackbox(data: object) -> dict:
    """Parse and validate a black-box dump (bytes, str, or parsed dict).

    Raises ``ValueError`` on anything that is not a flight-recorder
    dump; forward-compatible minor additions are accepted as long as the
    ``format`` family matches.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("black box must be a JSON object")
    fmt = data.get("format")
    if not isinstance(fmt, str) or not fmt.startswith("repro-flight-"):
        raise ValueError(f"not a flight-recorder dump (format={fmt!r})")
    events = data.get("events")
    if not isinstance(events, list):
        raise ValueError("black box has no event list")
    return data
