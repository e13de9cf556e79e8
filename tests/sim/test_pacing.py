"""Request pacing — the chunk-scheduling generalisation of Eq. (4)."""

from __future__ import annotations

import math

import pytest

from repro.abr import ConstantLevelAlgorithm, SessionConfig
from repro.emulation import NetworkProfile, emulate_session
from repro.sim import simulate_session
from repro.traces import Trace
from repro.video import envivio

IDEAL = NetworkProfile(
    rtt_s=0.0, header_kilobits=0.0, server_processing_delay_s=0.0,
    slow_start=False,
)


class TestPacingConfig:
    def test_default_threshold_is_bmax(self):
        config = SessionConfig(buffer_capacity_s=30.0)
        assert config.pacing_threshold_s == 30.0

    def test_target_clamps_at_bmax(self):
        config = SessionConfig(buffer_capacity_s=30.0,
                               request_target_buffer_s=45.0)
        assert config.pacing_threshold_s == 30.0

    def test_target_below_bmax(self):
        config = SessionConfig(request_target_buffer_s=12.0)
        assert config.pacing_threshold_s == 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(request_target_buffer_s=0.0)
        for target in (math.nan, math.inf):
            with pytest.raises(ValueError):
                SessionConfig(request_target_buffer_s=target)


class TestPacingBehaviour:
    def test_buffer_settles_at_target(self, envivio_manifest):
        trace = Trace.constant(20_000.0, 600.0)
        config = SessionConfig(request_target_buffer_s=12.0)
        session = simulate_session(
            ConstantLevelAlgorithm(0), trace, envivio_manifest, config
        )
        # After the fill phase, every post-wait buffer sits at the target.
        settled = [r.buffer_after_s for r in session.records[10:]]
        assert max(settled) <= 12.0 + 1e-9
        assert sum(1 for r in session.records if r.waited_s > 0) > 10

    def test_default_behaviour_unchanged(self, envivio_manifest):
        """No target -> exactly the paper's Eq. (4) (buffer fills to Bmax)."""
        trace = Trace.constant(20_000.0, 600.0)
        session = simulate_session(
            ConstantLevelAlgorithm(0), trace, envivio_manifest, SessionConfig()
        )
        assert max(r.buffer_after_s for r in session.records) == pytest.approx(30.0)

    def test_pacing_costs_no_qoe_on_stable_links(self, envivio_manifest):
        """Holding less buffer is free when throughput never dips."""
        trace = Trace.constant(5000.0, 600.0)
        paced = simulate_session(
            ConstantLevelAlgorithm(2), trace, envivio_manifest,
            SessionConfig(request_target_buffer_s=10.0),
        )
        unpaced = simulate_session(
            ConstantLevelAlgorithm(2), trace, envivio_manifest, SessionConfig()
        )
        assert paced.qoe().total == pytest.approx(unpaced.qoe().total)

    def test_pacing_increases_stall_risk_on_dips(self, envivio_manifest):
        """A small held buffer is exactly why Figure 11c's small-Bmax
        points suffer: a throughput trough drains it."""
        trace = Trace([0.0, 60.0, 90.0], [4000.0, 150.0, 4000.0],
                      duration_s=600.0)
        paced = simulate_session(
            ConstantLevelAlgorithm(2), trace, envivio_manifest,
            SessionConfig(request_target_buffer_s=6.0),
        )
        unpaced = simulate_session(
            ConstantLevelAlgorithm(2), trace, envivio_manifest, SessionConfig()
        )
        assert paced.total_rebuffer_s >= unpaced.total_rebuffer_s

    def test_backends_agree_under_pacing(self, envivio_manifest):
        trace = Trace([0.0, 50.0], [3000.0, 900.0], duration_s=400.0)
        config = SessionConfig(request_target_buffer_s=14.0)
        sim = simulate_session(
            ConstantLevelAlgorithm(1), trace, envivio_manifest, config
        )
        emu = emulate_session(
            ConstantLevelAlgorithm(1), trace, envivio_manifest, config,
            network=IDEAL,
        )
        assert emu.total_rebuffer_s == pytest.approx(sim.total_rebuffer_s, abs=1e-6)
        assert emu.total_wall_time_s == pytest.approx(sim.total_wall_time_s, abs=1e-6)
        for a, b in zip(emu.records, sim.records):
            assert a.buffer_after_s == pytest.approx(b.buffer_after_s, abs=1e-8)
            assert a.waited_s == pytest.approx(b.waited_s, abs=1e-8)
