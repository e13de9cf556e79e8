"""Link faults: per-transfer failure and latency injection.

:class:`SimLinkFaults` is the one injector.  The simulator asks it for
each chunk's dead time, and the emulated client asks it each time a
request reaches the link, so each behaviour is checked on the injector
and end to end through ``emulate_session``.  On the ideal network a
chunk's ``stalled_s`` is exactly the dead time before its delivering
attempt's first byte.
"""

from __future__ import annotations

import pytest

from repro.abr import ConstantLevelAlgorithm
from repro.emulation import NetworkProfile, emulate_session
from repro.faults import ChunkFailure, LatencySpike, SimLinkFaults
from repro.traces import Trace
from repro.video import envivio

IDEAL = NetworkProfile(
    rtt_s=0.0, header_kilobits=0.0, server_processing_delay_s=0.0,
    slow_start=False,
)
TRACE = Trace.constant(1000.0, 600.0, name="constant-1000")
MANIFEST = envivio().truncated(12)


def emulate(faults, seed=0):
    return emulate_session(
        ConstantLevelAlgorithm(0), TRACE, MANIFEST,
        network=IDEAL, faults=faults, fault_seed=seed,
    )


def request_times(session):
    """When each chunk was requested: when the previous one settled."""
    return [0.0] + [r.wall_time_end_s for r in session.records[:-1]]


class TestCleanPassThrough:
    def test_zero_rate_behaves_like_the_clean_link(self):
        faults = SimLinkFaults([ChunkFailure(rate=0.0)])
        assert faults.draw_failure(0.0, 0) is None
        assert faults.overhead_s(3.0) == 0.0
        assert emulate([ChunkFailure(rate=0.0)]).records == emulate(None).records


class TestChunkFailureInjection:
    def test_certain_failure_reports_after_detect_delay(self):
        # Only the first attempt, at t = 0, is at risk.
        fault = ChunkFailure(rate=1.0, detect_delay_s=0.25, duration_s=0.1)
        assert SimLinkFaults([fault]).draw_failure(0.0, 0) is fault
        assert SimLinkFaults([fault]).overhead_s(0.0) == 0.25
        first = emulate([fault]).records[0]
        clean = emulate(None).records[0]
        assert first.stalled_s == 0.25
        assert first.download_time_s == pytest.approx(0.25 + clean.download_time_s)

    def test_window_bounds_the_risk(self):
        fault = ChunkFailure(rate=1.0, detect_delay_s=0.1, start_s=10.0, duration_s=5.0)
        faults = SimLinkFaults([fault])
        assert faults.draw_failure(9.9, 0) is None
        assert faults.draw_failure(10.0, 0) is fault
        assert faults.draw_failure(15.0, 0) is None
        session = emulate([fault])
        at_risk = 0
        for requested, record in zip(request_times(session), session.records):
            if 10.0 <= requested < 15.0:
                # Every attempt inside the window fails; the first one
                # past its end delivers.
                at_risk += 1
                started = requested + record.stalled_s
                assert 15.0 - 1e-9 <= started < 15.1 + 1e-9
            else:
                assert record.stalled_s == 0.0
        assert at_risk

    def test_same_seed_same_failure_sequence(self):
        fault = ChunkFailure(rate=0.4, detect_delay_s=0.1)

        def failure_pattern(seed):
            faults = SimLinkFaults([fault], seed)
            return [faults.draw_failure(0.0, 0) is not None for _ in range(20)]

        first = failure_pattern(seed=7)
        assert first == failure_pattern(seed=7)
        assert True in first and False in first  # 0.4 over 20 draws: mixed
        assert first != failure_pattern(seed=8)

        def stalls(seed):
            return [r.stalled_s for r in emulate([fault], seed).records]

        assert stalls(7) == stalls(7)
        assert stalls(7) != stalls(8)

    def test_a_chunk_fails_at_most_64_times(self):
        fault = ChunkFailure(rate=1.0, detect_delay_s=0.5)
        faults = SimLinkFaults([fault])
        assert faults.draw_failure(0.0, 63) is fault
        assert faults.draw_failure(0.0, 64) is None
        assert faults.overhead_s(0.0) == 64 * 0.5
        session = emulate([fault])
        assert [r.stalled_s for r in session.records] == pytest.approx(
            [32.0] * MANIFEST.num_chunks
        )


class TestLatencySpike:
    def test_transfer_starting_in_window_is_delayed(self):
        spike = LatencySpike(0.0, 10.0, extra_delay_s=0.5)
        assert SimLinkFaults([spike]).spike_delay_s(0.0) == 0.5
        session = emulate([spike])
        clean = emulate(None)
        first = session.records[0]
        assert first.stalled_s == 0.5
        assert first.download_time_s == pytest.approx(
            0.5 + clean.records[0].download_time_s
        )
        for requested, record in zip(request_times(session), session.records):
            assert record.stalled_s == (0.5 if requested < 10.0 else 0.0)

    def test_overlapping_spikes_stack(self):
        spikes = [
            LatencySpike(0.0, 10.0, extra_delay_s=0.5),
            LatencySpike(0.0, 5.0, extra_delay_s=0.25),
        ]
        assert SimLinkFaults(spikes).spike_delay_s(0.0) == 0.75
        assert emulate(spikes).records[0].stalled_s == 0.75

    def test_a_spike_starting_during_another_delay_is_not_charged(self):
        """Both backends test every spike at the transfer's start: one
        that begins during another's delay is not charged."""
        assert SimLinkFaults(
            [
                LatencySpike(0.0, 10.0, extra_delay_s=0.5),
                LatencySpike(10.2, 10.0, extra_delay_s=0.5),
            ]
        ).overhead_s(9.9) == 0.5
        spikes = [
            LatencySpike(0.0, 10.0, extra_delay_s=0.5),
            LatencySpike(0.2, 10.0, extra_delay_s=0.5),
        ]
        assert SimLinkFaults(spikes).overhead_s(0.0) == 0.5
        assert emulate(spikes).records[0].stalled_s == 0.5
