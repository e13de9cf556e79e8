"""Property test: sim == emulation under an ideal network, for arbitrary
traces and a randomised decision policy.

This pins the equivalence of the two backends far beyond the handful of
fixed algorithms in test_backends.py: whatever decisions a policy makes,
and whatever startup wait it asks for, the byte-level event machinery
must produce the same session as the closed-form chunk simulator when
RTT, overhead, and slow-start are off.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr import ConstantLevelAlgorithm, create
from repro.abr.base import ABRAlgorithm
from repro.emulation import NetworkProfile, emulate_session
from repro.obs import (
    ChunkDecision,
    ChunkDownload,
    PredictionSpan,
    RingBufferSink,
    SessionSummary,
    Tracer,
    prediction_errors,
    verify_timeline,
)
from repro.sim import simulate_session
from repro.traces import Trace
from repro.video import short_test_video

IDEAL = NetworkProfile(
    rtt_s=0.0, header_kilobits=0.0, server_processing_delay_s=0.0,
    slow_start=False,
)


class SeededRandomPolicy(ABRAlgorithm):
    """Deterministic pseudo-random decisions keyed by chunk index only,
    and a startup wait keyed by the seed, so both backends see the
    identical policy."""

    name = "seeded-random"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"{seed}-startup")
        # No wait for about half the seeds, up to 4 s for the rest.
        self.startup_wait_s = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 4.0)

    def select_bitrate(self, observation):
        rng = random.Random(f"{self.seed}-{observation.chunk_index}")
        return rng.randrange(len(self.manifest.ladder))

    def select_startup_wait(self, observation):
        return self.startup_wait_s


class WaitingConstantPolicy(ConstantLevelAlgorithm):
    """Level 1 throughout, with a 3 s wait before playback starts."""

    def __init__(self) -> None:
        super().__init__(1)

    def select_startup_wait(self, observation):
        return 3.0


def assert_backends_agree(make_policy, trace, manifest):
    sim = simulate_session(make_policy(), trace, manifest)
    emu = emulate_session(make_policy(), trace, manifest, network=IDEAL)
    assert emu.level_indices == sim.level_indices
    assert emu.total_rebuffer_s == pytest.approx(sim.total_rebuffer_s, abs=1e-6)
    assert emu.startup_delay_s == pytest.approx(sim.startup_delay_s, abs=1e-6)
    assert emu.total_wall_time_s == pytest.approx(sim.total_wall_time_s, abs=1e-5)
    for a, b in zip(emu.records, sim.records):
        assert a.download_time_s == pytest.approx(b.download_time_s, abs=1e-8)
        assert a.buffer_before_s == pytest.approx(b.buffer_before_s, abs=1e-8)
        assert a.buffer_after_s == pytest.approx(b.buffer_after_s, abs=1e-8)
        assert a.rebuffer_s == pytest.approx(b.rebuffer_s, abs=1e-8)
        assert a.idle_before_s == pytest.approx(b.idle_before_s, abs=1e-6)
        assert a.waited_s == pytest.approx(b.waited_s, abs=1e-6)
        assert a.wall_time_end_s == pytest.approx(b.wall_time_end_s, abs=1e-5)
    return sim, emu


@given(
    seed=st.integers(0, 100_000),
    bandwidths=st.lists(st.floats(80.0, 5000.0), min_size=3, max_size=25),
)
@settings(max_examples=30)
def test_backends_agree_for_any_policy_and_trace(seed, bandwidths):
    manifest = short_test_video(num_chunks=10, num_levels=3)
    trace = Trace.from_samples(bandwidths, interval_s=3.0)
    assert_backends_agree(lambda: SeededRandomPolicy(seed), trace, manifest)


def test_backends_agree_after_a_startup_wait():
    """After the first chunk plus a 3 s startup wait, the next request
    goes out when playback starts on both backends (the emulated client
    used to request at once: 5.2 s of wall time against 10.5 s)."""
    manifest = short_test_video(num_chunks=4, num_levels=3)
    trace = Trace.from_samples([1000.0, 3000.0, 800.0, 2000.0], interval_s=3.0)
    sim, emu = assert_backends_agree(WaitingConstantPolicy, trace, manifest)
    assert sim.total_wall_time_s == pytest.approx(10.5)
    assert [r.buffer_after_s for r in emu.records] == pytest.approx(
        [4.0, 6.65, 8.1, 10.9]
    )
    assert emu.records[1].idle_before_s == pytest.approx(3.0)


def test_traced_emulated_session_verifies():
    """An emulated session's timeline replays exactly and carries the
    simulator's per-chunk event sequence, prediction spans included."""

    def traced(run):
        sink = RingBufferSink(capacity=100_000)
        run(Tracer([sink]))
        return list(sink.events())

    manifest = short_test_video(num_chunks=12, num_levels=3)
    trace = Trace.from_samples([1800.0, 400.0, 2500.0, 900.0], interval_s=4.0)
    emu_events = traced(
        lambda tracer: emulate_session(
            create("robust-mpc"), trace, manifest, network=IDEAL, tracer=tracer
        )
    )
    sim_events = traced(
        lambda tracer: simulate_session(
            create("robust-mpc"), trace, manifest, tracer=tracer
        )
    )
    assert verify_timeline(emu_events) == {}
    spans = prediction_errors(emu_events)
    assert [len(v) for v in spans.values()] == [manifest.num_chunks]

    per_chunk = (ChunkDecision, ChunkDownload, PredictionSpan, SessionSummary)

    def kinds(events):
        return [e.kind for e in events if isinstance(e, per_chunk)]

    assert kinds(emu_events) == kinds(sim_events)
