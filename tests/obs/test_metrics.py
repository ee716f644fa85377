"""The metrics registry: kinds, labels, buckets, quantiles, concurrency."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    SIZE_BUCKETS,
    bucket_quantile,
)
from repro.sim.clock import SimClock


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("requests_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("requests_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        family = MetricsRegistry().counter("calls_total", labelnames=("method",))
        family.labels("bind").inc(3)
        family.labels("lookup").inc()
        assert family.labels("bind").value == 3.0
        assert family.labels("lookup").value == 1.0
        assert family.labels(method="bind") is family.labels("bind")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc()
        gauge.dec(4)
        assert gauge.value == 7.0

    def test_can_go_negative(self):
        gauge = MetricsRegistry().gauge("delta")
        gauge.dec(2.5)
        assert gauge.value == -2.5


class TestHistogramBuckets:
    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus convention: le is an inclusive upper bound.
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.0)
        buckets = dict(histogram.labels().bucket_counts())
        assert buckets[1.0] == 1
        assert buckets[2.0] == 1  # cumulative

    def test_overflow_goes_to_inf(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0,))
        histogram.observe(99.0)
        buckets = histogram.labels().bucket_counts()
        assert buckets[-1] == (float("inf"), 1)
        assert buckets[0] == (1.0, 0)

    def test_cumulative_counts_end_at_total(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.labels().bucket_counts()[-1] == (float("inf"), 4)

    def test_sum_count_mean(self):
        histogram = MetricsRegistry().histogram("h", buckets=SIZE_BUCKETS)
        histogram.observe(2)
        histogram.observe(4)
        series = histogram.labels()
        assert series.count == 2
        assert series.sum == 6.0
        assert series.mean() == 3.0

    def test_duplicate_bucket_bounds_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", buckets=(1.0, 1.0))

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", buckets=())


class TestHistogramQuantiles:
    def test_empty_histogram_reports_zero(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.labels().quantile(0.5) == 0.0

    def test_out_of_range_rejected(self):
        histogram = MetricsRegistry().histogram("h")
        with pytest.raises(MetricError):
            histogram.labels().quantile(1.5)

    def test_single_observation_bounded_by_bucket_and_max(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.3)
        series = histogram.labels()
        # Estimates stay inside [bucket lower bound, observed max].
        assert 1.0 <= series.quantile(0.01) <= 1.3
        assert series.quantile(1.0) == pytest.approx(1.3)

    def test_estimates_bounded_by_observed_extremes(self):
        histogram = MetricsRegistry().histogram("h", buckets=DEFAULT_BUCKETS)
        for value in (0.002, 0.003, 0.004, 0.020):
            histogram.observe(value)
        series = histogram.labels()
        assert 0.002 <= series.quantile(0.5) <= 0.020
        assert series.quantile(1.0) == pytest.approx(0.020)

    def test_interpolates_within_a_bucket(self):
        histogram = MetricsRegistry().histogram("h", buckets=(10.0,))
        for value in (0.0, 2.0, 4.0, 6.0, 8.0):
            histogram.observe(value)
        # All five land in the first bucket [0, 10]; the median estimate
        # must interpolate strictly inside the observed range.
        median = histogram.labels().quantile(0.5)
        assert 0.0 < median < 8.0

    def test_quantiles_monotone_in_q(self):
        histogram = MetricsRegistry().histogram("h", buckets=DEFAULT_BUCKETS)
        for i in range(100):
            histogram.observe(0.0001 * (i + 1))
        series = histogram.labels()
        values = [series.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert values == sorted(values)


def _reference_series_quantile(bounds, counts, q, lowest, highest):
    """The per-series estimator as it stood before the shared one.

    ``counts`` holds one non-cumulative count per bucket, +Inf last.
    """
    total = sum(counts)
    if not total:
        return 0.0
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= rank and bucket_count:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else highest
            lower = max(lower, lowest) if index == 0 else lower
            upper = min(upper, highest)
            if upper < lower:
                upper = lower
            within = (rank - (cumulative - bucket_count)) / bucket_count
            return lower + (upper - lower) * within
    return highest


def _reference_merged_quantile(buckets, q):
    """The cluster rollup's estimator as it stood before the shared one."""
    if not buckets:
        return 0.0
    total = float(buckets[-1][1])
    if total <= 0:
        return 0.0
    rank = q * total
    prev_bound, prev_cum = 0.0, 0.0
    for bound, cum in buckets:
        bound, cum = float(bound), float(cum)
        if cum >= rank and cum > prev_cum:
            if bound == float("inf"):
                return prev_bound
            within = (rank - prev_cum) / (cum - prev_cum)
            return prev_bound + (bound - prev_bound) * within
        prev_bound, prev_cum = bound, cum
    return prev_bound


_bounds = st.lists(
    st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=8, unique=True
).map(sorted)
_quantile = st.one_of(
    st.sampled_from((0.0, 0.01, 0.5, 0.9, 0.99, 1.0)),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestBucketQuantile:
    """The one estimator reproduces both estimators it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        bounds=_bounds,
        data=st.data(),
        q=_quantile,
        extremes=st.lists(
            st.floats(min_value=-1.0, max_value=2e6), min_size=2, max_size=2
        ).map(sorted),
    )
    def test_with_low_and_high_matches_the_series_estimator(
        self, bounds, data, q, extremes
    ):
        counts = data.draw(
            st.lists(
                st.integers(0, 50), min_size=len(bounds) + 1,
                max_size=len(bounds) + 1,
            )
        )
        lowest, highest = extremes
        cumulative, running = [], 0
        for bound, count in zip(bounds + [float("inf")], counts):
            running += count
            cumulative.append((bound, running))
        expected = _reference_series_quantile(bounds, counts, q, lowest, highest)
        got = bucket_quantile(cumulative, q, low=max(0.0, lowest), high=highest)
        assert repr(got) == repr(expected)

    @settings(max_examples=300, deadline=None)
    @given(
        bounds=_bounds,
        data=st.data(),
        q=_quantile,
        with_inf=st.booleans(),
    )
    def test_without_low_and_high_matches_the_merged_estimator(
        self, bounds, data, q, with_inf
    ):
        if with_inf:
            bounds = bounds + [float("inf")]
        steps = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0),
                min_size=len(bounds), max_size=len(bounds),
            )
        )
        buckets, running = [], 0.0
        for bound, step in zip(bounds, steps):
            running += step
            buckets.append([bound, running])
        assert repr(bucket_quantile(buckets, q)) == repr(
            _reference_merged_quantile(buckets, q)
        )

    def test_series_quantile_uses_observed_extremes(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        for value in (1.25, 1.5, 3.0):
            histogram.observe(value)
        series = histogram.labels()
        assert series.quantile(1.0) == bucket_quantile(
            series.bucket_counts(), 1.0, low=1.25, high=3.0
        )


class TestTiming:
    def test_timer_observes_clock_elapsed(self):
        clock = SimClock()
        histogram = MetricsRegistry(clock=clock).histogram("h")
        with histogram.time():
            clock.advance(0.25)
        series = histogram.labels()
        assert series.count == 1
        assert series.sum == pytest.approx(0.25)


class TestRegistry:
    def test_redeclaration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        second = registry.counter("x_total", "help")
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(MetricError):
            registry.gauge("x_total")

    def test_labelname_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("a",))
        with pytest.raises(MetricError):
            registry.counter("x_total", labelnames=("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("2bad")
        with pytest.raises(MetricError):
            registry.counter("ok_total", labelnames=("bad-label",))
        with pytest.raises(MetricError):
            registry.counter("ok_total", labelnames=("peer", "peer"))

    def test_labelled_family_rejects_bare_use(self):
        family = MetricsRegistry().counter("x_total", labelnames=("a",))
        with pytest.raises(MetricError):
            family.inc()

    def test_label_arity_enforced(self):
        family = MetricsRegistry().counter("x_total", labelnames=("a", "b"))
        with pytest.raises(MetricError):
            family.labels("only-one")
        with pytest.raises(MetricError):
            family.labels(a="x")  # missing b

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "the counter").inc(2)
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c_total"]["kind"] == "counter"
        assert snapshot["c_total"]["series"][0]["value"] == 2.0
        entry = snapshot["h_seconds"]["series"][0]
        assert entry["count"] == 1
        assert entry["sum"] == 0.5
        assert entry["buckets"][-1][0] == float("inf")


class TestConcurrency:
    def test_concurrent_counter_increments_are_exact(self):
        counter = MetricsRegistry().counter("hits_total")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(2500)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert counter.value == 8 * 2500

    def test_concurrent_histogram_observers_are_exact(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.5, 1.5, 2.5))
        def hammer():
            for i in range(1500):
                histogram.observe(i % 3)  # 0, 1, 2 round-robin
        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        series = histogram.labels()
        assert series.count == 6 * 1500
        assert series.sum == 6 * (0 + 1 + 2) * 500
        cumulative = dict(series.bucket_counts())
        assert cumulative[0.5] == 6 * 500
        assert cumulative[1.5] == 6 * 1000
        assert cumulative[2.5] == 6 * 1500

    def test_concurrent_series_creation_single_instance(self):
        family = MetricsRegistry().counter("x_total", labelnames=("k",))
        barrier = threading.Barrier(8)
        def create(results, index):
            barrier.wait(timeout=10)
            results[index] = family.labels("shared")
        results: dict[int, object] = {}
        threads = [
            threading.Thread(target=create, args=(results, i)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert len(set(map(id, results.values()))) == 1
