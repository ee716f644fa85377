"""The metrics registry: one home for every number the system measures.

The paper validates its design entirely through measurement — "54 msecs =
6 + 22 + 20 + 6" — and every later layer of this reproduction grew its
own counters to match (``DatabaseStats``, ``RpcClientStats``, reply-cache
and circuit-breaker tallies).  This module unifies them: a thread-safe
:class:`MetricsRegistry` holding three metric kinds,

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a value that goes up and down (breaker state, lag);
* :class:`Histogram` — fixed-bucket distributions with quantile
  estimates, for latencies and batch sizes;

each optionally split by a **label set** (``shard``, ``peer``, ``method``,
``durability_mode``…).  A metric *family* is registered once per name;
``labels()`` materialises one time series per label combination.

Timing helpers run on the registry's injectable
:class:`~repro.sim.clock.Clock`, so a database on a ``SimClock`` records
modelled 1987 milliseconds and a production one records wall time — the
same rule every other measurement in this package follows.

Registration is idempotent: asking for an existing name returns the
existing family (the kind and label names must match), so independent
layers can share one registry without coordination.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

from repro.sim.clock import Clock, WallClock

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets, in seconds: 1 ms .. 30 s plus +Inf, chosen to
#: resolve both the paper's 1987 costs (milliseconds to seconds) and
#: modern sub-millisecond hardware.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.010, 0.025,
    0.050, 0.100, 0.250, 0.500, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Buckets for small-integer size distributions (batch sizes, retries).
SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class MetricError(ValueError):
    """A metric was declared or used inconsistently."""


class _Series:
    """One time series: the value cell behind one label combination."""

    __slots__ = ("labels", "_lock")

    def __init__(self, labels: tuple[str, ...]) -> None:
        self.labels = labels
        self._lock = threading.Lock()


class CounterSeries(_Series):
    __slots__ = ("_value",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        super().__init__(labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeSeries(_Series):
    __slots__ = ("_value",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        super().__init__(labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramSeries(_Series):
    """Fixed buckets, cumulative on export, with quantile estimates."""

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_min", "_max", "_clock")

    def __init__(
        self,
        labels: tuple[str, ...],
        bounds: tuple[float, ...],
        clock: Clock,
    ) -> None:
        super().__init__(labels)
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._min: float | None = None
        self._max: float | None = None
        self._clock = clock

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def time(self) -> "_HistogramTimer":
        """Context manager observing the elapsed clock time of its body."""
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` quantile by linear interpolation in-bucket.

        The estimate is exact at bucket boundaries and bounded by the
        true min/max observed; an empty histogram reports 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError("quantiles live in [0, 1]")
        with self._lock:
            if not self._count:
                return 0.0
            rank = q * self._count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count:
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    upper = (
                        self.bounds[index]
                        if index < len(self.bounds)
                        else (self._max if self._max is not None else lower)
                    )
                    if self._min is not None:
                        lower = max(lower, self._min) if index == 0 else lower
                    if self._max is not None:
                        upper = min(upper, self._max)
                    if upper < lower:
                        upper = lower
                    within = (rank - (cumulative - bucket_count)) / bucket_count
                    return lower + (upper - lower) * within
            return self._max if self._max is not None else 0.0

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at +Inf."""
        with self._lock:
            out = []
            cumulative = 0
            for bound, count in zip(self.bounds, self._counts):
                cumulative += count
                out.append((bound, cumulative))
            out.append((float("inf"), cumulative + self._counts[-1]))
            return out


class _HistogramTimer:
    def __init__(self, series: HistogramSeries) -> None:
        self._series = series
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = self._series._clock.now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._series.observe(self._series._clock.now() - self._start)


_KIND_SERIES = {
    "counter": CounterSeries,
    "gauge": GaugeSeries,
    "histogram": HistogramSeries,
}


class MetricFamily:
    """One named metric: a kind, label names, and one series per labelling.

    An unlabelled family (no label names) proxies the value methods of
    its single series, so ``registry.counter("x").inc()`` just works.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        kind: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._series: dict[tuple[str, ...], _Series] = {}
        self._lock = threading.Lock()
        #: an unlabelled family's one series, materialised eagerly so the
        #: value methods below reach it without a lock or a lookup
        self._only = None if labelnames else self.labels()

    def labels(self, *values: object, **kwvalues: object) -> object:
        """The series for one label combination (created on first use)."""
        if kwvalues:
            if values:
                raise MetricError("labels() takes positional or keyword, not both")
            try:
                values = tuple(kwvalues[name] for name in self.labelnames)
            except KeyError as exc:
                raise MetricError(
                    f"{self.name}: missing label {exc.args[0]!r}"
                ) from None
            if len(kwvalues) != len(self.labelnames):
                raise MetricError(f"{self.name}: unexpected labels {kwvalues!r}")
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise MetricError(
                f"{self.name} declares labels {self.labelnames!r}, got {key!r}"
            )
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if self.kind == "histogram":
                    series = HistogramSeries(key, self.buckets, self.registry.clock)
                else:
                    series = _KIND_SERIES[self.kind](key)
                self._series[key] = series
            return series

    def series(self) -> list[_Series]:
        with self._lock:
            return [self._series[key] for key in sorted(self._series)]

    # -- unlabelled conveniences ---------------------------------------------

    def _single(self) -> object:
        if self._only is None:
            raise MetricError(
                f"{self.name} is labelled by {self.labelnames!r}; call labels()"
            )
        return self._only

    def inc(self, amount: float = 1.0) -> None:
        self._single().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._single().dec(amount)

    def set(self, value: float) -> None:
        self._single().set(value)

    def observe(self, value: float) -> None:
        self._single().observe(value)

    def time(self):
        return self._single().time()

    @property
    def value(self) -> float:
        return self._single().value


class MetricsRegistry:
    """A namespace of metric families, exportable as one snapshot.

    ``clock`` drives the timing helpers (histogram ``time()`` contexts);
    inject a :class:`~repro.sim.clock.SimClock` and every timed section
    reports modelled time, exactly like the rest of the package.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # -- declaration ---------------------------------------------------------

    def _declare(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames!r}"
                    )
                return existing
            family = MetricFamily(self, name, help, kind, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._declare(name, help, "counter", tuple(labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._declare(name, help, "gauge", tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        if not buckets:
            raise MetricError("a histogram needs at least one bucket bound")
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(set(bounds)) != len(bounds):
            raise MetricError("histogram bucket bounds must be distinct")
        family = self._declare(name, help, "histogram", tuple(labelnames), bounds)
        if family.buckets != bounds:
            raise MetricError(
                f"histogram {name!r} already registered with buckets "
                f"{family.buckets!r}"
            )
        return family

    # -- introspection -------------------------------------------------------

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> dict[str, dict]:
        """A JSON-able dump of every family and series.

        Counters and gauges report ``value``; histograms report
        ``count``/``sum``/``mean``, cumulative ``buckets`` and the p50 /
        p90 / p99 estimates operators actually want at a glance.
        """
        out: dict[str, dict] = {}
        for family in self.families():
            series_dump = []
            for series in family.series():
                entry: dict[str, object] = {
                    "labels": dict(zip(family.labelnames, series.labels)),
                }
                if family.kind == "histogram":
                    entry.update(
                        count=series.count,
                        sum=series.sum,
                        mean=series.mean(),
                        p50=series.quantile(0.50),
                        p90=series.quantile(0.90),
                        p99=series.quantile(0.99),
                        buckets=[
                            [bound, count]
                            for bound, count in series.bucket_counts()
                        ],
                    )
                else:
                    entry["value"] = series.value
                series_dump.append(entry)
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series_dump,
            }
        return out
