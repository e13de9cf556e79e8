"""Latency histogram and service counters."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.metrics import (
    DEFAULT_BUCKET_BOUNDS_US,
    LatencyHistogram,
    ServiceMetrics,
)


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.mean_us == 0.0
        assert h.quantile(0.5) == 0.0

    def test_basic_stats(self):
        h = LatencyHistogram()
        for v in (10.0, 20.0, 30.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean_us == pytest.approx(20.0)
        assert h.max_us == 30.0

    def test_bucket_assignment_on_boundary(self):
        # bisect_left: a latency exactly on a bound lands in that
        # bound's bucket (the bucket whose upper edge it is).
        h = LatencyHistogram(bounds_us=(100.0, 200.0))
        h.observe(100.0)
        assert h._counts == [1, 0, 0]
        h.observe(100.1)
        assert h._counts == [1, 1, 0]
        h.observe(1e9)  # overflow bucket
        assert h._counts == [1, 1, 1]

    def test_quantile_interpolates_within_bucket(self):
        h = LatencyHistogram(bounds_us=(100.0,))
        for _ in range(100):
            h.observe(50.0)
        # All mass in [0, 100): median interpolates to mid-bucket.
        assert 0.0 < h.quantile(0.5) <= 100.0
        assert h.quantile(1.0) == pytest.approx(50.0)

    def test_quantiles_never_exceed_the_largest_latency(self):
        h = LatencyHistogram()
        for _ in range(1_000):
            h.observe(2_100.0)
        assert h.quantile(0.5) <= 2_100.0
        assert h.quantile(0.99) <= 2_100.0
        d = h.to_dict()
        assert d["p50_us"] <= 2_100.0 and d["p99_us"] <= 2_100.0

    def test_two_to_five_ms_is_split(self):
        h = LatencyHistogram()
        for _ in range(99):
            h.observe(2_200.0)
        h.observe(4_900.0)
        assert h.quantile(0.5) <= 2_500.0
        assert h.quantile(0.99) <= 2_500.0

    def test_overflow_bucket_reports_max(self):
        h = LatencyHistogram(bounds_us=(100.0,))
        h.observe(5_000.0)
        assert h.quantile(0.99) <= 5_000.0
        assert h.max_us == 5_000.0

    def test_quantile_monotone(self):
        h = LatencyHistogram()
        for v in (10, 60, 120, 300, 900, 4000, 20_000, 200_000):
            h.observe(float(v))
        qs = [h.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.observe(10.0)
        b.observe(1_000_000.0)
        a.merge(b)
        assert a.count == 2
        assert a.max_us == 1_000_000.0

    def test_merge_rejects_different_buckets(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(bounds_us=(1.0, 2.0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_us=())
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_us=(2.0, 1.0))
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_us=(1.0, 1.0))
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_us=(0.0, 1.0))
        with pytest.raises(ValueError):
            LatencyHistogram().observe(-1.0)
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_to_dict_schema(self):
        h = LatencyHistogram()
        h.observe(42.0)
        d = h.to_dict()
        assert set(d) == {
            "bounds_us", "counts", "count", "sum_us", "mean_us",
            "max_us", "p50_us", "p99_us",
        }
        assert len(d["counts"]) == len(d["bounds_us"]) + 1
        assert d["count"] == 1

    @given(values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=200))
    def test_counts_conserved(self, values):
        h = LatencyHistogram()
        for v in values:
            h.observe(v)
        assert h.count == len(values) == sum(h._counts)
        # Interpolation stays within the bucket holding the max sample,
        # so its ceiling (not the true max) bounds every quantile.
        import bisect

        bounds = list(DEFAULT_BUCKET_BOUNDS_US)
        i = bisect.bisect_left(bounds, h.max_us)
        ceiling = bounds[i] if i < len(bounds) else h.max_us
        assert 0.0 <= h.quantile(0.5) <= ceiling


class TestServiceMetrics:
    def test_decision_breakdown(self):
        m = ServiceMetrics()
        m.record_decision("table", 50.0, False, None, "s1")
        m.record_decision("fallback", 30.0, True, "no-table", "s2")
        m.record_decision("fallback", 30.0, True, "no-table", "s2")
        m.record_error()
        snap = m.snapshot()
        assert snap["requests_total"] == 4
        assert snap["decisions"] == {
            "table": 1, "controller": 0, "fallback": 2, "error": 1,
        }
        assert snap["degraded_total"] == 2
        assert snap["fallback_reasons"] == {"no-table": 2}
        assert snap["sessions_seen"] == 2
        assert snap["latency_us"]["count"] == 3

    def test_table_swaps_and_connections(self):
        m = ServiceMetrics()
        m.record_table_swap()
        m.connections_opened += 1
        m.connections_active += 1
        snap = m.snapshot()
        assert snap["table_swaps_total"] == 1
        assert snap["connections"] == {"opened": 1, "active": 1, "reset": 0}

    def test_disconnects_and_chaos(self):
        m = ServiceMetrics()
        m.record_disconnect()
        m.record_disconnect()
        m.record_chaos("reset")
        m.record_chaos("slow")
        m.record_chaos("reset")
        snap = m.snapshot()
        assert snap["connections"]["reset"] == 2
        assert snap["chaos_injected"] == {"reset": 2, "slow": 1}
        # Disconnects are connection-level events, not served requests.
        assert snap["requests_total"] == 0

    def test_snapshot_schema_locked(self):
        # docs/service.md documents exactly these keys.
        snap = ServiceMetrics().snapshot()
        assert set(snap) == {
            "requests_total", "decisions", "degraded_total",
            "fallback_reasons", "sessions_seen", "table_swaps_total",
            "connections", "chaos_injected", "batch_occupancy",
            "protocol_requests", "latency_us", "spans_us", "arms",
        }
        assert set(snap["decisions"]) == {
            "table", "controller", "fallback", "error",
        }
        assert set(snap["connections"]) == {"opened", "active", "reset"}
        assert snap["spans_us"] == {}  # per-span histograms appear lazily
        assert snap["arms"] == {}  # per-arm breakdowns appear lazily

    def test_record_span_builds_named_histograms(self):
        metrics = ServiceMetrics()
        metrics.record_span("decide", 120.0)
        metrics.record_span("decide", 240.0)
        metrics.record_span("table-swap", 90.0)
        snap = metrics.snapshot()
        assert sorted(snap["spans_us"]) == ["decide", "table-swap"]
        assert snap["spans_us"]["decide"]["count"] == 2
        assert snap["spans_us"]["table-swap"]["count"] == 1

    def test_default_bounds_strictly_increasing(self):
        bounds = list(DEFAULT_BUCKET_BOUNDS_US)
        assert bounds == sorted(bounds)
        assert len(set(bounds)) == len(bounds)


class TestArmMetrics:
    def test_controller_source_counted(self):
        m = ServiceMetrics()
        m.record_decision("controller", 80.0, False, None, "s1")
        snap = m.snapshot()
        assert snap["decisions"]["controller"] == 1
        assert snap["decisions"]["table"] == 0

    def test_arm_breakdown(self):
        m = ServiceMetrics()
        m.record_decision("table", 50.0, False, None, "s1", arm="control")
        m.record_decision("controller", 90.0, False, None, "s2", arm="bola")
        m.record_decision("fallback", 30.0, True, "no-table", "s3", arm="control")
        # Arm-less traffic never shows up in the per-arm breakdowns.
        m.record_decision("table", 40.0, False, None, "s4")
        snap = m.snapshot()
        assert set(snap["arms"]) == {"control", "bola"}
        control = snap["arms"]["control"]
        assert control["decisions"] == 2
        assert control["degraded"] == 1
        assert control["sources"] == {"table": 1, "fallback": 1}
        assert control["reasons"] == {"no-table": 1}
        assert control["latency_us"]["count"] == 2
        bola = snap["arms"]["bola"]
        assert bola["decisions"] == 1
        assert bola["sources"] == {"controller": 1}
        assert bola["latency_us"]["count"] == 1

    def test_arm_slice_schema(self):
        m = ServiceMetrics()
        m.record_decision("controller", 10.0, False, None, "s", arm="a")
        slice_ = m.snapshot()["arms"]["a"]
        assert set(slice_) == {
            "decisions", "degraded", "sources", "reasons", "latency_us",
        }
