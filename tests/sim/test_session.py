"""The trace-driven simulator: buffer dynamics, startup, invariants."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.abr import ConstantLevelAlgorithm, FixedPlanAlgorithm, SessionConfig
from repro.abr.base import ABRAlgorithm
from repro.core.mpc import MPCController
from repro.sim import (
    SessionResult,
    StartupPolicy,
    run_live_session,
    simulate_session,
)
from repro.traces import Trace
from repro.video import envivio, short_test_video


class TestBasicRun:
    def test_all_chunks_downloaded(self, envivio_manifest, constant_trace):
        session = simulate_session(
            ConstantLevelAlgorithm(0), constant_trace, envivio_manifest
        )
        assert len(session.records) == 65
        assert [r.chunk_index for r in session.records] == list(range(65))

    def test_download_times_match_trace(self, envivio_manifest, constant_trace):
        session = simulate_session(
            ConstantLevelAlgorithm(2), constant_trace, envivio_manifest
        )
        for r in session.records:
            assert r.download_time_s == pytest.approx(
                r.size_kilobits / 1500.0
            )
            assert r.throughput_kbps == pytest.approx(1500.0)

    def test_no_rebuffer_on_fast_constant_link(self, envivio_manifest):
        trace = Trace.constant(10_000.0, 600.0)
        session = simulate_session(
            ConstantLevelAlgorithm(-1), trace, envivio_manifest
        )
        assert session.total_rebuffer_s == 0.0

    def test_guaranteed_rebuffer_on_starved_link(self, envivio_manifest):
        trace = Trace.constant(500.0, 2000.0)
        session = simulate_session(
            ConstantLevelAlgorithm(-1), trace, envivio_manifest
        )
        assert session.total_rebuffer_s > 0.0

    def test_startup_is_first_chunk_download_time(self, envivio_manifest):
        trace = Trace.constant(1400.0, 600.0)
        session = simulate_session(
            ConstantLevelAlgorithm(0), trace, envivio_manifest
        )
        assert session.startup_delay_s == pytest.approx(4.0 * 350.0 / 1400.0)


class TestEq4FullBufferWait:
    def test_waits_recorded_when_buffer_fills(self, envivio_manifest):
        trace = Trace.constant(50_000.0, 600.0)
        session = simulate_session(
            ConstantLevelAlgorithm(0), trace, envivio_manifest,
            SessionConfig(buffer_capacity_s=12.0),
        )
        waits = [r.waited_s for r in session.records]
        assert max(waits) > 0.0
        assert all(r.buffer_after_s <= 12.0 + 1e-9 for r in session.records)

    def test_wall_time_includes_waits(self, envivio_manifest):
        trace = Trace.constant(50_000.0, 600.0)
        session = simulate_session(
            ConstantLevelAlgorithm(0), trace, envivio_manifest,
            SessionConfig(buffer_capacity_s=12.0),
        )
        total_wait = sum(r.waited_s for r in session.records)
        total_download = sum(r.download_time_s for r in session.records)
        assert session.total_wall_time_s == pytest.approx(
            total_wait + total_download, rel=1e-9
        )


class TestStartupPolicies:
    def test_fixed_startup_time(self, envivio_manifest):
        trace = Trace.constant(2000.0, 600.0)
        session = simulate_session(
            ConstantLevelAlgorithm(0), trace, envivio_manifest,
            startup_policy=StartupPolicy.FIXED, fixed_startup_delay_s=6.0,
        )
        assert session.startup_delay_s == pytest.approx(6.0)

    def test_fixed_startup_accumulates_buffer(self, envivio_manifest):
        """Larger fixed startup -> more pre-roll buffer -> fewer stalls
        (the Figure 11d mechanism)."""
        trace = Trace([0.0, 30.0], [2000.0, 350.0], duration_s=320.0)
        stalls = []
        for ts in (2.0, 10.0):
            session = simulate_session(
                ConstantLevelAlgorithm(1), trace, envivio_manifest,
                startup_policy=StartupPolicy.FIXED, fixed_startup_delay_s=ts,
            )
            stalls.append(session.total_rebuffer_s)
        assert stalls[1] <= stalls[0]

    def test_fixed_startup_negative_rejected(self, envivio_manifest, constant_trace):
        for delay in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                simulate_session(
                    ConstantLevelAlgorithm(0), constant_trace, envivio_manifest,
                    startup_policy=StartupPolicy.FIXED, fixed_startup_delay_s=delay,
                )

    def test_mpc_startup_wait_applied(self, envivio_manifest):
        """On a slow link the MPC startup problem asks for extra pre-roll
        when stalls cost more than startup time."""
        from repro.qoe import QoEWeights

        trace = Trace.constant(700.0, 900.0)
        config = SessionConfig(
            weights=QoEWeights(1.0, 6000.0, 1000.0, label="preroll")
        )
        mpc_session = simulate_session(
            MPCController(), trace, envivio_manifest, config
        )
        baseline = simulate_session(
            ConstantLevelAlgorithm(1), trace, envivio_manifest, config
        )
        first_chunk_time = mpc_session.records[0].download_time_s
        assert mpc_session.startup_delay_s >= first_chunk_time - 1e-9


class TestInvariants:
    class RandomAlgorithm(ABRAlgorithm):
        name = "random"

        def __init__(self, seed):
            self.rng = random.Random(seed)

        def select_bitrate(self, observation):
            return self.rng.randrange(len(self.manifest.ladder))

    @given(seed=st.integers(0, 10_000))
    def test_session_invariants_under_random_policy(self, seed):
        manifest = short_test_video(num_chunks=10, num_levels=3)
        rng = random.Random(seed)
        samples = [rng.uniform(100.0, 4000.0) for _ in range(30)]
        trace = Trace.from_samples(samples, 3.0)
        config = SessionConfig(buffer_capacity_s=rng.uniform(8.0, 40.0))
        session = simulate_session(
            self.RandomAlgorithm(seed), trace, manifest, config
        )
        # Buffer stays within [0, Bmax]; wall clock is monotone; rebuffer
        # and waits are non-negative; sizes match the manifest.
        last_t = 0.0
        for r in session.records:
            assert 0.0 <= r.buffer_after_s <= config.buffer_capacity_s + 1e-9
            assert r.wall_time_end_s >= last_t - 1e-9
            last_t = r.wall_time_end_s
            assert r.rebuffer_s >= 0.0
            assert r.waited_s >= 0.0
            assert r.size_kilobits == pytest.approx(
                manifest.chunk_size_kilobits(r.chunk_index, r.level_index)
            )
        assert session.total_rebuffer_s == pytest.approx(
            sum(r.rebuffer_s for r in session.records)
        )
        assert session.startup_delay_s >= 0.0

    @given(seed=st.integers(0, 10_000))
    def test_wall_time_conservation(self, seed):
        """Total wall time = downloads + waits (+ startup extras)."""
        manifest = short_test_video(num_chunks=6, num_levels=3)
        rng = random.Random(seed)
        trace = Trace.from_samples(
            [rng.uniform(200.0, 3000.0) for _ in range(20)], 4.0
        )
        session = simulate_session(
            self.RandomAlgorithm(seed + 1), trace, manifest
        )
        expected = sum(r.download_time_s + r.waited_s for r in session.records)
        assert session.total_wall_time_s == pytest.approx(expected, rel=1e-9)


class TestAlgorithmContract:
    class Rogue(ABRAlgorithm):
        name = "rogue"

        def select_bitrate(self, observation):
            return 99

    def test_invalid_level_rejected(self, envivio_manifest, constant_trace):
        with pytest.raises(ValueError, match="invalid level"):
            simulate_session(self.Rogue(), constant_trace, envivio_manifest)

    class BadWait(ABRAlgorithm):
        name = "bad-wait"

        def __init__(self, wait):
            self.wait = wait

        def select_bitrate(self, observation):
            return 0

        def select_startup_wait(self, observation):
            return self.wait

    def test_negative_startup_wait_rejected(self, envivio_manifest, constant_trace):
        for wait in (-1.0, math.nan, math.inf):
            for play in (simulate_session, run_live_session):
                with pytest.raises(ValueError, match="startup wait"):
                    play(self.BadWait(wait), constant_trace, envivio_manifest)


class TestSessionResult:
    def test_qoe_reweighting(self, envivio_manifest, constant_trace):
        from repro.qoe import QoEWeights

        session = simulate_session(
            ConstantLevelAlgorithm(0), constant_trace, envivio_manifest
        )
        balanced = session.qoe()
        harsh = session.qoe(weights=QoEWeights.avoid_rebuffering())
        assert harsh.total <= balanced.total

    def test_qoe_excluding_startup(self, envivio_manifest, constant_trace):
        session = simulate_session(
            ConstantLevelAlgorithm(0), constant_trace, envivio_manifest
        )
        with_s = session.qoe(include_startup=True)
        without = session.qoe(include_startup=False)
        assert without.total == pytest.approx(
            with_s.total + 3000.0 * session.startup_delay_s
        )

    def test_level_indices_and_bitrates(self, envivio_manifest, constant_trace):
        plan = [i % 5 for i in range(65)]
        session = simulate_session(
            FixedPlanAlgorithm(plan), constant_trace, envivio_manifest
        )
        assert session.level_indices == plan
        assert session.bitrates_kbps[:5] == [350.0, 600.0, 1000.0, 2000.0, 3000.0]


class TestThroughputFloor:
    """Every DownloadResult must respect the prediction layer's
    observation floor — a blackout chunk measures ``OBSERVATION_FLOOR_KBPS``,
    never zero (which the DownloadResult constructor rejects) and never a
    bare division artifact below the floor."""

    def test_blackout_chunks_floored_not_rejected(self, envivio_manifest):
        from repro.prediction import OBSERVATION_FLOOR_KBPS

        # 1 s of healthy link, then a dead link for the rest of the
        # (enormous) trace window: chunks landing in the blackout take
        # nearly the whole 2e6 s pass, so their measured throughput is
        # far below the floor and must be clamped up to it.
        trace = Trace([0.0, 1.0], [5000.0, 0.0], duration_s=2_000_000.0)
        session = simulate_session(
            ConstantLevelAlgorithm(0), trace, envivio_manifest
        )
        assert len(session.records) == 65
        throughputs = [r.throughput_kbps for r in session.records]
        assert all(t >= OBSERVATION_FLOOR_KBPS for t in throughputs)
        # The blackout chunks really did hit the floor (the regression
        # was an unclamped size/time ratio, not a merely slow chunk).
        assert min(throughputs) == OBSERVATION_FLOOR_KBPS
        assert max(throughputs) > 1000.0  # the healthy first chunk
        # (The emulation backend applies the identical clamp at its
        # DownloadResult construction; driving its discrete-event engine
        # through a megasecond blackout would blow the event budget, so
        # the sim path carries the regression test for both.)
