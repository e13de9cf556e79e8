"""Live-streaming sessions: publish gating, edge waits, latency QoE.

The keystone conformance check: a live session whose backlog covers the
whole manifest has every chunk published at ``t = 0``, so it must
reproduce the on-demand simulator *bit for bit* — same records, same
rebuffer, same startup, same traced timeline.  Both run one Eq. (1)-(4)
loop; the live schedule is pure addition, never a reinterpretation of
the dynamics, and the check fails if a live-only line alters a session
whose chunks all exist at ``t = 0``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import pytest

from repro.abr.base import ABRAlgorithm, PlayerObservation, SessionConfig
from repro.abr.registry import available, create
from repro.faults import ChunkFailure, LatencySpike
from repro.obs import RingBufferSink, Tracer
from repro.sim.live import LiveConfig, run_live_session
from repro.sim.session import simulate_session
from repro.traces import FCCTraceGenerator, Trace
from repro.video.presets import envivio, short_test_video

#: Per-transfer faults for the keystone, drawn with a fixed seed: a
#: latency spike over part of the session and random chunk failures.
LINK_FAULTS = [
    LatencySpike(start_s=20.0, duration_s=60.0, extra_delay_s=0.7),
    ChunkFailure(rate=0.15, detect_delay_s=0.8),
]
#: Event fields that read the real clock instead of the session's.
WALL_CLOCK_FIELDS = ("decide_wall_s", "wall_s")


class SpyAlgorithm(ABRAlgorithm):
    """Lowest level always; records every observation it was shown."""

    name = "spy"

    def __init__(self) -> None:
        self.observations = []

    def select_bitrate(self, observation: PlayerObservation) -> int:
        self.observations.append(observation)
        return 0


def fast_trace(duration_s=600.0):
    return Trace.constant(50_000.0, duration_s, name="fast")


def recorded_observations(algorithm):
    """Make ``algorithm`` keep every observation it decides on."""
    seen = []
    decide = algorithm.select_bitrate

    def select_bitrate(observation):
        seen.append(observation)
        return decide(observation)

    algorithm.select_bitrate = select_bitrate
    return seen


def timeline(play, name, trace, manifest, **kwargs):
    """One traced session's events on a counting clock, with the session
    id and the wall-clock fields cleared."""
    sink = RingBufferSink(capacity=100_000)
    ticks = itertools.count()
    tracer = Tracer([sink], clock=lambda: float(next(ticks)))
    play(create(name), trace, manifest, tracer=tracer, **kwargs)
    events = []
    for event in sink.events():
        clocks = {f: 0.0 for f in WALL_CLOCK_FIELDS if hasattr(event, f)}
        events.append(dataclasses.replace(event, session_id="", **clocks))
    return events


class TestLiveConfig:
    def test_publish_schedule(self):
        live = LiveConfig(backlog_chunks=3)
        # the DVR backlog pre-exists; the rest arrive one interval apart
        assert [live.publish_time_s(k, 4.0) for k in range(6)] == [
            0.0, 0.0, 0.0, 4.0, 8.0, 12.0,
        ]

    def test_interval_defaults_to_chunk_duration(self):
        manifest = envivio()
        assert LiveConfig().publish_interval_s(manifest) == manifest.chunk_duration_s
        assert LiveConfig(interval_s=2.5).publish_interval_s(manifest) == 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            LiveConfig(interval_s=0.0)
        with pytest.raises(ValueError):
            LiveConfig(backlog_chunks=0)
        with pytest.raises(ValueError):
            LiveConfig(latency_target_s=-1.0)
        with pytest.raises(ValueError):
            LiveConfig(latency_weight=-1.0)
        for bad in (
            dict(interval_s=math.nan),
            dict(interval_s=math.inf),
            dict(latency_target_s=math.nan),
            dict(latency_target_s=math.inf),
            dict(latency_weight=math.nan),
            dict(latency_weight=math.inf),
            dict(backlog_chunks=2.5),
        ):
            with pytest.raises(ValueError):
                LiveConfig(**bad)


class TestLiveSession:
    @pytest.mark.parametrize("faults", [None, LINK_FAULTS], ids=["clean", "faults"])
    @pytest.mark.parametrize("target", [None, 12.0], ids=["bmax", "target-12"])
    @pytest.mark.parametrize("name", available())
    def test_full_backlog_reproduces_vod_exactly(self, name, target, faults):
        """Everything published at t=0 -> the on-demand session, bit for
        bit, for every controller, paced or not, with or without link
        faults.  Traced, both emit the same timeline."""
        trace = FCCTraceGenerator(seed=3).generate_many(1, 300.0)[0]
        manifest = envivio()
        config = SessionConfig(request_target_buffer_s=target)
        faulted = dict(link_faults=faults, fault_seed=7)
        vod_algorithm = create(name)
        vod_seen = recorded_observations(vod_algorithm)
        vod = simulate_session(vod_algorithm, trace, manifest, config, **faulted)
        live_algorithm = create(name)
        live_seen = recorded_observations(live_algorithm)
        live = run_live_session(
            live_algorithm,
            trace,
            manifest,
            config,
            live=LiveConfig(backlog_chunks=manifest.num_chunks),
            **faulted,
        )
        assert live.session.records == vod.records
        assert live.session.total_rebuffer_s == vod.total_rebuffer_s
        assert live.session.startup_delay_s == vod.startup_delay_s
        assert live.edge_wait_s == 0.0
        assert live.edge_rebuffer_s == 0.0
        assert all(o.available_chunks is None for o in vod_seen)
        assert all(o.available_chunks == manifest.num_chunks for o in live_seen)

        # The timelines, on a 12-chunk video to keep the sweep short.
        short = short_test_video(num_chunks=12, num_levels=3)
        vod_events = timeline(
            simulate_session, name, trace, short, config=config, **faulted
        )
        live_events = timeline(
            run_live_session,
            name,
            trace,
            short,
            config=config,
            live=LiveConfig(backlog_chunks=short.num_chunks),
            **faulted,
        )
        assert live_events == vod_events

    def test_bounded_lookahead_exposed_to_decisions(self):
        """Decisions see the published prefix, which gates lookahead
        early in the session and only ever grows."""
        spy = SpyAlgorithm()
        manifest = envivio()
        run_live_session(spy, fast_trace(), manifest)
        available = [o.available_chunks for o in spy.observations]
        assert len(available) == manifest.num_chunks
        for k, n in enumerate(available):
            assert k + 1 <= n <= manifest.num_chunks  # requested => published
        assert available == sorted(available)
        assert available[0] < manifest.num_chunks  # lookahead really bounded

    def test_fast_link_waits_at_the_live_edge(self):
        """A link much faster than the encoder drains the backlog and
        then idles one interval per chunk; the wait is accounted as the
        off time that feeds the gap-corrected predictors."""
        live = run_live_session(SpyAlgorithm(), fast_trace(), envivio())
        assert live.edge_wait_s > 0.0
        assert any(r.idle_before_s > 0.0 for r in live.session.records)
        # at the edge, fetch latency stays bounded by roughly an interval
        assert max(live.latencies_s) <= 2.0 * envivio().chunk_duration_s

    def test_latency_accounting(self):
        """qoe_total is exactly Eq. 5 minus the latency penalty, and a
        zero target makes the penalty weight * mean latency."""
        config = LiveConfig(latency_target_s=0.0, latency_weight=10.0)
        live = run_live_session(
            SpyAlgorithm(), fast_trace(), envivio(), live=config
        )
        assert live.mean_latency_s() > 0.0
        assert live.latency_penalty() == 10.0 * (
            sum(live.latencies_s) / len(live.latencies_s)
        )
        assert live.qoe_total() == live.session.qoe().total - live.latency_penalty()

    def test_high_target_zeroes_the_penalty(self):
        config = LiveConfig(latency_target_s=1e6)
        live = run_live_session(
            SpyAlgorithm(), fast_trace(), envivio(), live=config
        )
        assert live.latency_penalty() == 0.0
        assert live.qoe_total() == live.session.qoe().total

    def test_mpc_controller_clips_horizon_at_the_live_edge(self):
        """MPC plans over the published prefix only — the session runs
        to completion with valid levels despite the bounded lookahead."""
        trace = FCCTraceGenerator(seed=5).generate_many(1, 300.0)[0]
        manifest = envivio()
        live = run_live_session(create("mpc"), trace, manifest)
        assert len(live.session.records) == manifest.num_chunks
        for record in live.session.records:
            assert 0 <= record.level_index < len(manifest.ladder)

    def test_gap_predictor_sees_edge_idle(self):
        """Edge waits land in idle_before_s, so the gap-corrected
        predictor's on/off diagnostic is non-zero for a live session."""
        algorithm = create("fastmpc-gap")
        run_live_session(algorithm, fast_trace(), envivio())
        assert algorithm.predictor.idle_gap_fraction() > 0.0

    def test_slow_publisher_rebuffers_at_the_edge(self):
        """An encoder slower than real time starves playback: the edge
        wait itself drains the buffer and rebuffers, charged to the
        schedule, not the network."""
        manifest = envivio()
        config = LiveConfig(
            interval_s=2.0 * manifest.chunk_duration_s, backlog_chunks=1
        )
        live = run_live_session(
            SpyAlgorithm(), fast_trace(2000.0), manifest, live=config
        )
        assert live.edge_rebuffer_s > 0.0
        assert live.session.total_rebuffer_s >= live.edge_rebuffer_s
