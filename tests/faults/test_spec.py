"""Fault specifications, the family partition helpers, and profiles."""

from __future__ import annotations

import math

import pytest

from repro.faults import (
    Blackout,
    ChunkFailure,
    FaultProfile,
    LatencySpike,
    PROFILES,
    SimLinkFaults,
    ThroughputClamp,
    apply_trace_faults,
    bandwidth_faults,
    get_profile,
    link_faults,
    periodic_blackouts,
)
from repro.traces import Trace


class TestWindowedFaultValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Blackout(-1.0, 5.0)

    def test_nan_start_rejected(self):
        # A NaN or infinite start was accepted and never fired.
        for fault, fields in (
            (Blackout, dict(start_s=math.nan, duration_s=5.0)),
            (Blackout, dict(start_s=math.inf, duration_s=1.0)),
            (LatencySpike, dict(start_s=math.nan, duration_s=1.0)),
            (ChunkFailure, dict(start_s=math.nan)),
            (ChunkFailure, dict(start_s=math.inf)),
        ):
            with pytest.raises(ValueError, match="start_s"):
                fault(**fields)

    def test_nonpositive_duration_rejected(self):
        for fault, fields in (
            (Blackout, dict(start_s=10.0, duration_s=0.0)),
            (Blackout, dict(start_s=10.0, duration_s=-2.0)),
            (Blackout, dict(start_s=10.0, duration_s=math.inf)),
            (Blackout, dict(start_s=0.0, duration_s=math.nan)),
            (LatencySpike, dict(start_s=0.0, duration_s=math.nan)),
            (ChunkFailure, dict(duration_s=0.0)),
            (ChunkFailure, dict(duration_s=math.nan)),
        ):
            with pytest.raises(ValueError, match="duration_s"):
                fault(**fields)
        # Only a failure window may be endless: the whole session.
        assert ChunkFailure(duration_s=math.inf).duration_s == math.inf

    def test_window_is_half_open(self):
        fault = Blackout(10.0, 5.0)
        assert fault.end_s == 15.0
        assert fault.active_at(10.0)
        assert fault.active_at(14.999)
        assert not fault.active_at(15.0)
        assert not fault.active_at(9.999)

    def test_clamp_cap_validation(self):
        assert ThroughputClamp(0.0, 1.0, cap_kbps=0.0).cap_kbps == 0.0
        with pytest.raises(ValueError):
            ThroughputClamp(0.0, 1.0, cap_kbps=-1.0)
        with pytest.raises(ValueError):
            ThroughputClamp(0.0, 1.0, cap_kbps=math.inf)

    def test_latency_spike_validation(self):
        # A NaN delay made the simulator raise mid-session while the
        # emulation played as if there were no spike.
        for delay in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="extra_delay_s"):
                LatencySpike(0.0, 1.0, extra_delay_s=delay)


class TestChunkFailureValidation:
    def test_rate_bounds(self):
        assert ChunkFailure(rate=0.0).rate == 0.0
        assert ChunkFailure(rate=1.0).rate == 1.0
        with pytest.raises(ValueError):
            ChunkFailure(rate=-0.1)
        with pytest.raises(ValueError):
            ChunkFailure(rate=1.1)
        with pytest.raises(ValueError, match="rate"):
            ChunkFailure(rate=math.nan)

    def test_negative_detect_delay_rejected(self):
        # An infinite delay made simulate_session divide by zero and the
        # emulation schedule an event at infinity.
        assert ChunkFailure(detect_delay_s=0.0).detect_delay_s == 0.0
        for delay in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="detect_delay_s"):
                ChunkFailure(rate=1.0, detect_delay_s=delay)

    def test_default_window_is_whole_session(self):
        fault = ChunkFailure(rate=0.5)
        assert fault.active_at(0.0)
        assert fault.active_at(1e9)

    def test_bounded_window(self):
        fault = ChunkFailure(rate=0.5, start_s=10.0, duration_s=5.0)
        assert not fault.active_at(9.0)
        assert fault.active_at(12.0)
        assert not fault.active_at(15.0)


def test_only_bandwidth_fault_windows_repeat_when_the_session_wraps():
    """Bandwidth faults are compiled into the trace and wrap with it;
    link-fault windows are on the session clock and do not repeat."""
    trace = Trace.constant(1000.0, 600.0)
    blacked_out = apply_trace_faults(trace, [Blackout(0.0, 10.0)])
    assert blacked_out.bandwidth_at(5.0) == 0.0
    assert blacked_out.bandwidth_at(605.0) == 0.0
    assert blacked_out.bandwidth_at(615.0) == 1000.0
    spiked = SimLinkFaults([LatencySpike(0.0, 10.0)])
    assert spiked.spike_delay_s(5.0) == 0.5
    assert spiked.spike_delay_s(605.0) == 0.0
    failing = SimLinkFaults([ChunkFailure(rate=1.0, duration_s=10.0)])
    assert failing.draw_failure(5.0, 0) is not None
    assert failing.draw_failure(605.0, 0) is None


class TestFamilyPartition:
    def test_partition_is_exhaustive_and_disjoint(self):
        faults = [
            Blackout(0.0, 1.0),
            ThroughputClamp(0.0, 1.0, cap_kbps=100.0),
            LatencySpike(0.0, 1.0),
            ChunkFailure(rate=0.1),
        ]
        bw = bandwidth_faults(faults)
        link = link_faults(faults)
        assert bw == faults[:2]
        assert link == faults[2:]


class TestProfiles:
    def test_catalogue_contents(self):
        assert {"clean", "blackouts", "lossy-link", "resets",
                "flaky-server", "meltdown"} <= set(PROFILES)

    def test_get_profile_miss_lists_catalogue(self):
        with pytest.raises(ValueError, match="resets"):
            get_profile("nope")

    def test_clean_profile_is_inert(self):
        clean = get_profile("clean")
        assert clean.trace_faults == ()
        assert not clean.chaos.any_enabled

    def test_with_seed_reseeds_only_the_chaos_rng(self):
        resets = get_profile("resets")
        reseeded = resets.with_seed(99)
        assert isinstance(reseeded, FaultProfile)
        assert reseeded.chaos.seed == 99
        assert reseeded.chaos.reset_rate == resets.chaos.reset_rate
        assert reseeded.trace_faults == resets.trace_faults

    def test_periodic_blackouts_spacing(self):
        outages = periodic_blackouts(60.0, 5.0, 320.0, first_start_s=30.0)
        assert [b.start_s for b in outages] == [30.0, 90.0, 150.0, 210.0, 270.0]
        assert all(b.duration_s == 5.0 for b in outages)

    def test_periodic_blackouts_rejects_always_dark(self):
        with pytest.raises(ValueError):
            periodic_blackouts(5.0, 5.0, 320.0)
