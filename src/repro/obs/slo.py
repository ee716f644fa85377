"""SLO targets and multi-window burn-rate alerts over cluster metrics.

The paper promises a service, not a process: "a name server" that
answers enquiries fast and accepts updates.  This module states those
promises as declarative :class:`SloTarget` objects — p99 latency bounds,
an error-rate ceiling and a write-availability bound — and evaluates them against the aggregated per-replica snapshots the
:class:`~repro.obs.aggregate.MetricsAggregator` produces.

Evaluation is the SRE-book burn-rate scheme: every target defines an
error budget (``1 - objective``); each :meth:`SloMonitor.observe` call
appends a cumulative ``(good, total)`` sample per target, and
:meth:`SloMonitor.evaluate` computes the *burn rate* — the fraction of
events that were bad over a sliding window, divided by the budget — over
both a fast and a slow window.  An alert fires only when **both**
windows burn hotter than the target's threshold (fast-only is noise,
slow-only is stale news), and clears when either cools off.  Alert
transitions are recorded as flight-recorder events (``slo_burn_alert`` /
``slo_burn_clear``), so a postmortem timeline shows when the service
level actually broke, not just when a process died.

Targets load from JSON (``docs/FORMATS.md`` §"SLO config") or default
to :func:`default_slo_targets`.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import cumulative_at
from repro.sim.clock import Clock, WallClock

__all__ = [
    "SloMonitor",
    "SloTarget",
    "default_slo_targets",
    "load_slo_config",
]

#: the three ways a target counts good events against its objective
TARGET_KINDS = ("latency", "error_ratio", "gauge_max")


@dataclass
class SloTarget:
    """One declarative service-level objective.

    ``kind`` selects the counting rule:

    * ``"latency"`` — of the observations in histogram ``metric``
      (filtered to series whose labels include ``labels``), the fraction
      completing within ``threshold_s`` must be ≥ ``objective``;
    * ``"error_ratio"`` — of the events counted by ``total_metrics``
      (summed), those counted by ``bad_metric`` must stay below
      ``1 - objective``;
    * ``"gauge_max"`` — the max of gauge ``metric`` across matching
      series must be ≤ ``bound`` for at least ``objective`` of scrape
      samples (a time-slice SLO: each observe() is one sample).
    """

    name: str
    kind: str
    objective: float
    metric: str = ""
    threshold_s: float = 0.0
    labels: dict = field(default_factory=dict)
    bad_metric: str = ""
    total_metrics: tuple[str, ...] = ()
    bound: float = 0.0
    fast_window_s: float = 60.0
    slow_window_s: float = 300.0
    burn_threshold: float = 6.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise ValueError(
                f"SLO {self.name!r}: unknown kind {self.kind!r} "
                f"(one of {TARGET_KINDS})"
            )
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"SLO {self.name!r}: objective must be in (0, 1)"
            )
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError(
                f"SLO {self.name!r}: need 0 < fast_window_s <= slow_window_s"
            )

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    # -- counting -------------------------------------------------------------

    def _matching(self, snapshot: dict) -> list[dict]:
        family = snapshot.get(self.metric)
        if family is None:
            return []
        wanted = self.labels.items()
        return [
            series
            for series in family["series"]
            if all(
                (series.get("labels") or {}).get(k) == v for k, v in wanted
            )
        ]

    def count(self, snapshot: dict) -> tuple[float, float]:
        """Cumulative ``(good, total)`` events under this target.

        ``snapshot`` is a merged per-replica snapshot (see
        :func:`repro.obs.aggregate.merge_snapshots`); plain single-node
        registry snapshots work too.
        """
        if self.kind == "latency":
            good = total = 0.0
            for series in self._matching(snapshot):
                total += float(series.get("count", 0))
                good += cumulative_at(series.get("buckets") or [], self.threshold_s)
            return good, total
        if self.kind == "error_ratio":
            bad = _sum_values(snapshot, self.bad_metric)
            total = sum(
                _sum_values(snapshot, name) for name in self.total_metrics
            )
            return max(0.0, total - bad), total
        # gauge_max: one sample per observe() call
        values = [
            float(series.get("value", 0.0))
            for series in self._matching(snapshot)
        ]
        worst = max(values) if values else 0.0
        return (1.0, 1.0) if worst <= self.bound else (0.0, 1.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "metric": self.metric,
            "threshold_s": self.threshold_s,
            "labels": dict(self.labels),
            "bad_metric": self.bad_metric,
            "total_metrics": list(self.total_metrics),
            "bound": self.bound,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "burn_threshold": self.burn_threshold,
            "description": self.description,
        }


def _sum_values(snapshot: dict, name: str) -> float:
    family = snapshot.get(name)
    if family is None:
        return 0.0
    return sum(
        float(series.get("value", 0.0)) for series in family["series"]
    )


def default_slo_targets() -> list[SloTarget]:
    """The stock targets, over the established metric catalogue."""
    return [
        SloTarget(
            name="update_latency",
            kind="latency",
            objective=0.99,
            metric="db_update_seconds",
            threshold_s=0.25,
            description="p99 of acked updates within 250 ms",
        ),
        SloTarget(
            name="enquire_latency",
            kind="latency",
            objective=0.99,
            metric="rpc_server_method_seconds",
            labels={"method": "lookup"},
            threshold_s=0.1,
            description="p99 of served lookups within 100 ms",
        ),
        SloTarget(
            name="error_rate",
            kind="error_ratio",
            objective=0.999,
            bad_metric="db_updates_rejected_total",
            total_metrics=("db_updates_total", "db_updates_rejected_total"),
            description="rejected updates below 0.1% of all updates",
        ),
        SloTarget(
            name="write_availability",
            kind="gauge_max",
            objective=0.999,
            metric="db_health_state",
            bound=0.5,
            description="no replica degraded below read-write health",
        ),
    ]


_TARGET_FIELDS = {
    "name", "kind", "objective", "metric", "threshold_s", "labels",
    "bad_metric", "total_metrics", "bound", "fast_window_s",
    "slow_window_s", "burn_threshold", "description",
}


def load_slo_config(data) -> list[SloTarget]:
    """Parse an SLO config (JSON text/bytes, or the parsed dict).

    Schema (``docs/FORMATS.md``): ``{"slos": [{target fields...}]}``.
    Raises ``ValueError`` on unknown fields or invalid targets, so a
    typo fails the boot instead of silently monitoring nothing.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or not isinstance(data.get("slos"), list):
        raise ValueError('SLO config must be {"slos": [...]}')
    targets = []
    for raw in data["slos"]:
        if not isinstance(raw, dict):
            raise ValueError(f"SLO entry must be an object, got {raw!r}")
        unknown = set(raw) - _TARGET_FIELDS
        if unknown:
            raise ValueError(
                f"SLO {raw.get('name', '?')!r}: unknown fields {sorted(unknown)}"
            )
        raw = dict(raw)
        if "total_metrics" in raw:
            raw["total_metrics"] = tuple(raw["total_metrics"])
        targets.append(SloTarget(**raw))
    return targets


class SloMonitor:
    """Sliding-window burn-rate evaluation over aggregated snapshots.

    Feed it one merged per-replica snapshot per scrape tick
    (:meth:`observe`); ask it where the service stands
    (:meth:`evaluate` / :meth:`status`).  Samples older than the longest
    slow window (plus slack) are discarded.  Thread-safe: the
    coordinator's poll loop observes while ``shell health`` evaluates.
    """

    def __init__(
        self,
        targets: list[SloTarget] | None = None,
        clock: Clock | None = None,
        flight=None,
    ) -> None:
        self.targets = list(targets) if targets is not None else default_slo_targets()
        names = [t.name for t in self.targets]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO target names in {names}")
        self.clock = clock if clock is not None else WallClock()
        self.flight = flight
        self._lock = threading.Lock()
        horizon = max(
            (t.slow_window_s for t in self.targets), default=300.0
        )
        self._horizon = horizon * 1.5
        #: (time, {target name: (good, total)}) — cumulative counts
        self._samples: deque[tuple[float, dict]] = deque()
        self._alerting: dict[str, bool] = {t.name: False for t in self.targets}

    # -- feeding --------------------------------------------------------------

    def observe(self, snapshot: dict, now: float | None = None) -> dict:
        """Append one scrape's cumulative counts; returns the sample."""
        if now is None:
            now = self.clock.now()
        counts = {
            target.name: target.count(snapshot) for target in self.targets
        }
        with self._lock:
            # gauge_max samples accumulate: each tick adds one trial.
            prior = self._samples[-1][1] if self._samples else {}
            stamped: dict = {}
            for target in self.targets:
                good, total = counts[target.name]
                if target.kind == "gauge_max":
                    pg, pt = prior.get(target.name, (0.0, 0.0))
                    good, total = pg + good, pt + total
                stamped[target.name] = (good, total)
            self._samples.append((now, stamped))
            cutoff = now - self._horizon
            while len(self._samples) > 1 and self._samples[0][0] < cutoff:
                self._samples.popleft()
        return {"time": now, "counts": stamped}

    # -- evaluation -----------------------------------------------------------

    def _window_burn(
        self, target: SloTarget, window_s: float, now: float
    ) -> float:
        """Bad fraction over the window, divided by the error budget."""
        with self._lock:
            samples = list(self._samples)
        if len(samples) < 2:
            return 0.0
        newest_time, newest = samples[-1]
        oldest = None
        for time, counts in samples:
            if time >= now - window_s:
                oldest = counts
                break
        if oldest is None or oldest is newest:
            oldest = samples[0][1]
        g1, t1 = oldest.get(target.name, (0.0, 0.0))
        g2, t2 = newest.get(target.name, (0.0, 0.0))
        delta_total = t2 - t1
        if delta_total <= 0:
            return 0.0
        delta_bad = max(0.0, (t2 - g2) - (t1 - g1))
        return (delta_bad / delta_total) / target.budget

    def evaluate(self, now: float | None = None) -> list[dict]:
        """Per-target burn status; records flight events on transitions."""
        if now is None:
            now = self.clock.now()
        statuses = []
        for target in self.targets:
            fast = self._window_burn(target, target.fast_window_s, now)
            slow = self._window_burn(target, target.slow_window_s, now)
            alerting = (
                fast >= target.burn_threshold
                and slow >= target.burn_threshold
            )
            with self._lock:
                was = self._alerting[target.name]
                self._alerting[target.name] = alerting
            if self.flight is not None and alerting != was:
                self.flight.record(
                    "slo_burn_alert" if alerting else "slo_burn_clear",
                    target=target.name,
                    burn_fast=round(fast, 3),
                    burn_slow=round(slow, 3),
                    objective=target.objective,
                    threshold=target.burn_threshold,
                )
            statuses.append(
                {
                    "name": target.name,
                    "kind": target.kind,
                    "objective": target.objective,
                    "burn_fast": fast,
                    "burn_slow": slow,
                    "burn_threshold": target.burn_threshold,
                    "alerting": alerting,
                    "description": target.description,
                }
            )
        return statuses

    def status(self, now: float | None = None) -> dict:
        """The JSON-able summary served over RPC and HTTP."""
        statuses = self.evaluate(now)
        with self._lock:
            samples = len(self._samples)
        return {
            "targets": statuses,
            "alerting": [s["name"] for s in statuses if s["alerting"]],
            "samples": samples,
        }

    def format(self) -> str:
        """Operator rendering for ``shell health`` / ``top --cluster``."""
        lines = [
            f"{'SLO':<22} {'objective':>10} {'burn fast':>10} "
            f"{'burn slow':>10}  state"
        ]
        for status in self.evaluate():
            state = "ALERT" if status["alerting"] else "ok"
            lines.append(
                f"{status['name']:<22} {status['objective'] * 100:>9.2f}% "
                f"{status['burn_fast']:>10.2f} {status['burn_slow']:>10.2f}"
                f"  {state}"
            )
        return "\n".join(lines)
