"""The trace-shaped shared bottleneck link."""

from __future__ import annotations

import pytest

from repro.emulation import EventQueue, SharedTraceLink
from repro.emulation.link import _water_fill
from repro.traces import Trace


def run_transfer(link, queue, size):
    done = {}
    link.start_transfer(size, lambda t: done.setdefault("transfer", t))
    queue.run_until_idle()
    return done["transfer"]


class TestWaterFill:
    def test_uncapped_equal_split(self):
        assert _water_fill(900.0, [float("inf")] * 3) == pytest.approx([300.0] * 3)

    def test_capped_flow_redistributes(self):
        rates = _water_fill(900.0, [100.0, float("inf"), float("inf")])
        assert rates == pytest.approx([100.0, 400.0, 400.0])

    def test_all_capped_below_capacity(self):
        rates = _water_fill(900.0, [100.0, 200.0])
        assert rates == pytest.approx([100.0, 200.0])

    def test_empty(self):
        assert _water_fill(900.0, []) == []

    def test_conservation(self):
        caps = [150.0, 600.0, float("inf"), 80.0]
        rates = _water_fill(1000.0, caps)
        assert sum(rates) == pytest.approx(1000.0)
        assert all(r <= c + 1e-9 for r, c in zip(rates, caps))


class TestSingleTransfer:
    def test_no_ramp_matches_trace_inverse(self, step_trace):
        queue = EventQueue()
        link = SharedTraceLink(step_trace, queue, slow_start=False)
        transfer = run_transfer(link, queue, 5000.0)
        assert transfer.completed_at_s == pytest.approx(
            step_trace.time_to_download(0.0, 5000.0), rel=1e-9
        )

    def test_no_ramp_constant_link(self):
        trace = Trace.constant(1000.0, 600.0)
        queue = EventQueue()
        link = SharedTraceLink(trace, queue, slow_start=False)
        transfer = run_transfer(link, queue, 2500.0)
        assert transfer.completed_at_s == pytest.approx(2.5)
        assert transfer.throughput_kbps() == pytest.approx(1000.0)

    def test_slow_start_delays_short_transfers(self):
        trace = Trace.constant(8000.0, 600.0)
        plain_q = EventQueue()
        ramp_q = EventQueue()
        plain = SharedTraceLink(trace, plain_q, slow_start=False)
        ramped = SharedTraceLink(trace, ramp_q, rtt_s=0.1, slow_start=True)
        t_plain = run_transfer(plain, plain_q, 1400.0).completed_at_s
        t_ramp = run_transfer(ramped, ramp_q, 1400.0).completed_at_s
        assert t_ramp > t_plain

    def test_slow_start_bias_shrinks_for_long_transfers(self):
        """The HTTP measurement bias: short chunks under-report bandwidth
        far more than long ones."""
        trace = Trace.constant(6000.0, 600.0)

        def measured(size):
            queue = EventQueue()
            link = SharedTraceLink(trace, queue, rtt_s=0.1, slow_start=True)
            return run_transfer(link, queue, size).throughput_kbps()

        short_bias = measured(600.0) / 6000.0
        long_bias = measured(60_000.0) / 6000.0
        assert short_bias < long_bias
        assert long_bias > 0.9

    def test_transfer_validation(self):
        queue = EventQueue()
        link = SharedTraceLink(Trace.constant(1000.0, 60.0), queue)
        with pytest.raises(ValueError):
            link.start_transfer(0.0, lambda t: None)

    def test_throughput_requires_completion(self):
        queue = EventQueue()
        link = SharedTraceLink(Trace.constant(1000.0, 60.0), queue)
        transfer = link.start_transfer(100.0, lambda t: None)
        with pytest.raises(RuntimeError):
            transfer.throughput_kbps()

    def test_zero_bandwidth_interval_stalls_then_resumes(self):
        trace = Trace([0.0, 1.0, 3.0], [1000.0, 0.0, 1000.0], duration_s=10.0)
        queue = EventQueue()
        link = SharedTraceLink(trace, queue, slow_start=False)
        transfer = run_transfer(link, queue, 2000.0)
        # 1 s at 1000, 2 s dead, 1 s at 1000.
        assert transfer.completed_at_s == pytest.approx(4.0)


class TestSharedTransfers:
    def test_two_equal_transfers_share_fairly(self):
        trace = Trace.constant(1000.0, 600.0)
        queue = EventQueue()
        link = SharedTraceLink(trace, queue, slow_start=False)
        done = []
        link.start_transfer(1000.0, done.append)
        link.start_transfer(1000.0, done.append)
        queue.run_until_idle()
        # Both progress at 500 kbps until the first finishes; identical
        # sizes finish together at t=2.
        assert [t.completed_at_s for t in done] == pytest.approx([2.0, 2.0])

    def test_short_transfer_releases_capacity(self):
        trace = Trace.constant(1000.0, 600.0)
        queue = EventQueue()
        link = SharedTraceLink(trace, queue, slow_start=False)
        done = {}
        link.start_transfer(3000.0, lambda t: done.setdefault("long", t))
        link.start_transfer(500.0, lambda t: done.setdefault("short", t))
        queue.run_until_idle()
        # Short: 500 kb at 500 kbps -> t=1.  Long: 500 kb by t=1, then
        # full rate: remaining 2500 kb -> finishes at t=3.5.
        assert done["short"].completed_at_s == pytest.approx(1.0)
        assert done["long"].completed_at_s == pytest.approx(3.5)

    def test_staggered_arrival(self):
        trace = Trace.constant(1000.0, 600.0)
        queue = EventQueue()
        link = SharedTraceLink(trace, queue, slow_start=False)
        done = {}
        link.start_transfer(2000.0, lambda t: done.setdefault("first", t))
        queue.schedule_at(
            1.0,
            lambda: link.start_transfer(500.0, lambda t: done.setdefault("second", t)),
        )
        queue.run_until_idle()
        # First runs alone for 1 s (1000 kb), then shares at 500 kbps.
        # Second: 500 kb at 500 kbps -> t=2.  First then has 500 kb left
        # and the full 1000 kbps again -> t=2.5.
        assert done["second"].completed_at_s == pytest.approx(2.0)
        assert done["first"].completed_at_s == pytest.approx(2.5)

    def test_conservation_across_many_transfers(self):
        """Total delivered bits never exceed link capacity x time."""
        trace = Trace([0.0, 5.0], [800.0, 1600.0], duration_s=20.0)
        queue = EventQueue()
        link = SharedTraceLink(trace, queue, slow_start=False)
        done = []
        for size in (1000.0, 2000.0, 500.0, 1500.0):
            link.start_transfer(size, done.append)
        queue.run_until_idle()
        finish = max(t.completed_at_s for t in done)
        total = sum(t.size_kilobits for t in done)
        assert total <= trace.kilobits_between(0.0, finish) + 1e-6
        # And the link was never idle while work remained: the last finish
        # time matches the trace's exact inverse for the aggregate size.
        assert finish == pytest.approx(trace.time_to_download(0.0, total), rel=1e-9)


def test_segment_starts_are_read_once(monkeypatch, step_trace):
    """The link binds the trace's segment starts when it is built:
    ``Trace.timestamps`` copies every start, so reading it per reschedule
    cost O(segments) per event."""
    reads = []
    timestamps = Trace.timestamps.fget

    def counted(trace):
        reads.append(trace)
        return timestamps(trace)

    monkeypatch.setattr(Trace, "timestamps", property(counted))
    queue = EventQueue()
    link = SharedTraceLink(step_trace, queue, rtt_s=0.1, slow_start=True)
    for size in (5000.0, 800.0, 12_000.0):
        link.start_transfer(size, lambda t: None)
    queue.run_until_idle()
    assert len(reads) == 1
