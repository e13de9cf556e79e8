"""FaultyLink: per-transfer failure and latency injection."""

from __future__ import annotations

import pytest

from repro.emulation import EventQueue, SharedTraceLink
from repro.faults import (
    ChunkFailure,
    FailedTransfer,
    FaultyLink,
    LatencySpike,
    SimLinkFaults,
)
from repro.traces import Trace


def make_link(faults, seed=0):
    trace = Trace.constant(1000.0, 600.0)
    queue = EventQueue()
    inner = SharedTraceLink(trace, queue, slow_start=False)
    return FaultyLink(inner, faults, seed=seed), queue


class TestCleanPassThrough:
    def test_zero_rate_behaves_like_the_clean_link(self):
        link, queue = make_link([ChunkFailure(rate=0.0)])
        done = {}
        transfer = link.start_transfer(2500.0, lambda t: done.setdefault("t", t))
        queue.run_until_idle()
        assert transfer is not None
        assert done["t"].completed_at_s == pytest.approx(2.5)
        assert link.transfers_started == 1
        assert link.transfers_failed == 0

    def test_exposes_the_inner_link_surface(self):
        link, queue = make_link([])
        assert link.trace is link.inner.trace
        assert link.queue is queue
        assert link.active_transfers == 0


class TestChunkFailureInjection:
    def test_certain_failure_reports_after_detect_delay(self):
        link, queue = make_link([ChunkFailure(rate=1.0, detect_delay_s=0.25)])
        failures = []
        completions = []
        result = link.start_transfer(
            2500.0, completions.append, on_fail=failures.append
        )
        queue.run_until_idle()
        assert result is None
        assert completions == []
        (failure,) = failures
        assert isinstance(failure, FailedTransfer)
        assert failure.size_kilobits == 2500.0
        assert failure.wasted_s == pytest.approx(0.25)
        assert link.transfers_failed == 1

    def test_no_handler_degrades_to_a_delay_not_a_deadlock(self):
        """A caller without on_fail still gets its bytes, late."""
        link, queue = make_link([ChunkFailure(rate=1.0, detect_delay_s=0.25)])
        done = {}
        # rate=1.0 would re-fail the rescheduled transfer too — but the
        # degraded path goes straight to the inner link, so it cannot.
        link.start_transfer(2500.0, lambda t: done.setdefault("t", t))
        queue.run_until_idle()
        assert done["t"].completed_at_s == pytest.approx(0.25 + 2.5)

    def test_window_bounds_the_risk(self):
        fault = ChunkFailure(rate=1.0, detect_delay_s=0.1, start_s=10.0, duration_s=5.0)
        link, queue = make_link([fault])
        outcomes = []
        link.start_transfer(1000.0, lambda t: outcomes.append("ok"))
        queue.run_until_idle()  # starts at t=0, outside the window
        assert outcomes == ["ok"]

    def test_same_seed_same_failure_sequence(self):
        fault = ChunkFailure(rate=0.4, detect_delay_s=0.1)

        def failure_pattern(seed):
            link, queue = make_link([fault], seed=seed)
            pattern = []
            for _ in range(20):
                link.start_transfer(
                    10.0, lambda t: pattern.append(False),
                    on_fail=lambda f: pattern.append(True),
                )
                queue.run_until_idle()
            return pattern

        first = failure_pattern(seed=7)
        assert first == failure_pattern(seed=7)
        assert True in first and False in first  # 0.4 over 20 draws: mixed
        assert first != failure_pattern(seed=8)


class TestLatencySpike:
    def test_transfer_starting_in_window_is_delayed(self):
        link, queue = make_link([LatencySpike(0.0, 10.0, extra_delay_s=0.5)])
        done = {}
        result = link.start_transfer(2500.0, lambda t: done.setdefault("t", t))
        queue.run_until_idle()
        assert result is None  # delayed, outcome via callback
        assert done["t"].completed_at_s == pytest.approx(0.5 + 2.5)

    def test_overlapping_spikes_stack(self):
        link, queue = make_link(
            [
                LatencySpike(0.0, 10.0, extra_delay_s=0.5),
                LatencySpike(0.0, 5.0, extra_delay_s=0.25),
            ]
        )
        done = {}
        link.start_transfer(2500.0, lambda t: done.setdefault("t", t))
        queue.run_until_idle()
        assert done["t"].completed_at_s == pytest.approx(0.75 + 2.5)

    def test_a_spike_starting_during_another_delay_is_not_charged(self):
        """Both backends test every spike at the transfer's start: one
        that begins during another's delay is not charged.  The
        simulator's injector is the same code ``FaultyLink`` draws from."""
        spikes = [
            LatencySpike(0.0, 10.0, extra_delay_s=0.5),
            LatencySpike(10.2, 10.0, extra_delay_s=0.5),
        ]
        assert SimLinkFaults(spikes).overhead_s(9.9) == 0.5
        link, queue = make_link(spikes)
        done = {}
        queue.schedule_at(
            9.9,
            lambda: link.start_transfer(1000.0, lambda t: done.setdefault("t", t)),
        )
        queue.run_until_idle()
        assert done["t"].started_at_s == pytest.approx(9.9 + 0.5)
