"""Property test: sim == emulation under an ideal network, for arbitrary
traces and a randomised decision policy.

This pins the equivalence of the two backends far beyond the handful of
fixed algorithms in test_backends.py: whatever decisions a policy makes,
the byte-level event machinery must produce the same session as the
closed-form chunk simulator when RTT, overhead, and slow-start are off.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import ABRAlgorithm
from repro.emulation import NetworkProfile, emulate_session
from repro.sim import simulate_session
from repro.traces import Trace
from repro.video import short_test_video

IDEAL = NetworkProfile(
    rtt_s=0.0, header_kilobits=0.0, server_processing_delay_s=0.0,
    slow_start=False,
)


class SeededRandomPolicy(ABRAlgorithm):
    """Deterministic pseudo-random decisions keyed by chunk index only,
    so both backends see the identical policy."""

    name = "seeded-random"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def select_bitrate(self, observation):
        rng = random.Random(f"{self.seed}-{observation.chunk_index}")
        return rng.randrange(len(self.manifest.ladder))


@given(
    seed=st.integers(0, 100_000),
    bandwidths=st.lists(st.floats(80.0, 5000.0), min_size=3, max_size=25),
)
@settings(max_examples=30)
def test_backends_agree_for_any_policy_and_trace(seed, bandwidths):
    manifest = short_test_video(num_chunks=10, num_levels=3)
    trace = Trace.from_samples(bandwidths, interval_s=3.0)
    sim = simulate_session(SeededRandomPolicy(seed), trace, manifest)
    emu = emulate_session(
        SeededRandomPolicy(seed), trace, manifest, network=IDEAL
    )
    assert emu.level_indices == sim.level_indices
    assert emu.total_rebuffer_s == pytest.approx(sim.total_rebuffer_s, abs=1e-6)
    assert emu.startup_delay_s == pytest.approx(sim.startup_delay_s, abs=1e-6)
    assert emu.total_wall_time_s == pytest.approx(sim.total_wall_time_s, abs=1e-5)
    for a, b in zip(emu.records, sim.records):
        assert a.download_time_s == pytest.approx(b.download_time_s, abs=1e-8)
        assert a.buffer_before_s == pytest.approx(b.buffer_before_s, abs=1e-8)
        assert a.buffer_after_s == pytest.approx(b.buffer_after_s, abs=1e-8)
        assert a.rebuffer_s == pytest.approx(b.rebuffer_s, abs=1e-8)
